#ifndef DFLOW_NET_WIRE_PROTOCOL_H_
#define DFLOW_NET_WIRE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "core/attribute_state.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "runtime/server_stats.h"

namespace dflow::net {

// The dflow wire protocol: length-prefixed binary frames over a
// TCP byte stream. Every frame is
//
//   +------+------+---------+------+----------------+===============+
//   | 'D'  | 'F'  | version | type |  payload_len   |    payload    |
//   | u8   | u8   |   u8    |  u8  |    u32 LE      | payload_len B |
//   +------+------+---------+------+----------------+===============+
//    <------------- 8-byte header ------------------>
//
// All integers are little-endian; doubles travel as the bit pattern of
// their IEEE-754 representation in a u64. Strings and the variable-length
// sections are length-prefixed, never NUL-terminated. A receiver that sees
// a bad magic, an unsupported version, or a payload length above its limit
// cannot resynchronize the stream and must close the connection; a frame
// whose *payload* fails to decode is reported with a typed error and the
// connection stays usable (framing is still intact).
inline constexpr uint8_t kMagic0 = 'D';
inline constexpr uint8_t kMagic1 = 'F';
// One version, strictly: every frame carries kWireVersion and a receiver
// accepts exactly that version. A peer speaking any other version gets a
// final UNSUPPORTED_VERSION error and the connection closes, so a mixed
// fleet fails loudly at the first frame instead of misparsing payloads.
// Every client and server is built from this repository, so there is no
// compatibility window to keep.
inline constexpr uint8_t kWireVersion = 9;
inline constexpr size_t kFrameHeaderBytes = 8;
// Default ceiling on one frame's payload. Generous for request/response
// traffic (a submit is dominated by its source bindings) while bounding
// what one connection can make the peer buffer.
inline constexpr uint32_t kDefaultMaxPayloadBytes = 1u << 20;

// Frame types. Requests flow client -> server, responses server -> client.
enum class MsgType : uint8_t {
  kSubmit = 1,        // execute one decision-flow instance
  kSubmitResult = 2,  // result summary (+ optional full snapshot)
  kError = 3,         // typed failure, attributable via request_id
  kInfoRequest = 4,   // server info/stats query (empty payload)
  kInfo = 5,          // info response
  kGoodbye = 6,       // graceful close: server flushes, acks, disconnects
  kGoodbyeAck = 7,    // goodbye acknowledgment (empty payload)
  // 8-11, 13 and 14 belonged to retired scrape frames and are never
  // reused.
  kBatchSubmit = 12,   // many submits, one frame, one ticket range
  kStatsRequest = 15,  // introspection scrape: request_id + section mask
  kStats = 16,         // the requested sections, fleet-wide on routers
};

// Section bits of a STATS_REQUEST (and of the STATS answering it). Any
// other bit is malformed.
inline constexpr uint8_t kStatsMetrics = 1;  // Prometheus text exposition
inline constexpr uint8_t kStatsHealth = 2;   // status, rate series, journal
inline constexpr uint8_t kStatsProfile = 4;  // plan profile (paper section 3)
inline constexpr uint8_t kStatsAllSections =
    kStatsMetrics | kStatsHealth | kStatsProfile;

// Typed error codes carried by kError frames.
enum class WireError : uint16_t {
  kNone = 0,
  kRejectedBusy = 1,     // non-blocking admission refused: shard queue full
  kMalformedFrame = 2,   // payload failed to decode
  kUnsupportedVersion = 3,
  kUnsupportedType = 4,  // unknown MsgType
  kFrameTooLarge = 5,    // payload_len above the receiver's limit
  kBadStrategy = 6,      // strategy override unparsable or not served here
  kShuttingDown = 7,     // server draining; no further admissions
  kInternal = 8,
  // Routing tier only: the backend this request hashes to is disconnected
  // and the router fails fast instead of queueing into the void. Transient
  // (the router reconnects with backoff); a client may retry.
  kBackendUnavailable = 9,
};

const char* ToString(WireError error);

// --- Typed messages. Field-for-field equality (used by the round-trip
// property tests) is the defaulted operator== on each struct. Each
// message's byte layout is one field list in wire_protocol.cc, which
// drives its encoder, its decoder and its size. The fixed payload offsets
// below are what the routing tier peeks and patches without decoding;
// wire_protocol_test reads every one of them back from encoded frames.

// Every submit, batch, result and error payload leads with its u64
// correlation id (a batch's ticket-range base) at offset 0.
inline constexpr size_t kRequestIdBytes = 8;

// Client -> server: execute one instance.
struct SubmitRequest {
  // Client-chosen correlation id echoed in the response; responses may
  // arrive out of submission order when requests land on different shards.
  uint64_t request_id = 0;
  uint64_t seed = 0;
  // Admission mode: blocking Submit (backpressure stalls this connection's
  // reader — TCP flow control propagates it to the client) or non-blocking
  // TrySubmit (queue-full surfaces as a kRejectedBusy error frame).
  bool blocking = true;
  // When set, the response carries the full terminal snapshot (every
  // attribute's state and value), not just the summary + fingerprint.
  bool want_snapshot = false;
  // Optional strategy override in the paper's notation ("PSE100"). Empty
  // means "whatever the server runs". A server shard's engine is bound to
  // one strategy, so an override naming any *other* strategy is refused
  // with kBadStrategy rather than silently executed differently.
  std::string strategy;
  core::SourceBinding sources;
  // Optional trace context (the v4 extension). When has_trace is set the
  // payload carries trailing trace bytes after the sources and the server
  // traces this request regardless of its own sampling. trace_id == 0
  // means "assign one at this entry point" (what a client forcing a trace
  // sends); a nonzero id is adopted verbatim (what a router propagates, so
  // one request keeps one identity across nodes). Clients that leave
  // has_trace unset produce payloads identical to v3 — old client code is
  // unaffected by the extension.
  bool has_trace = false;
  uint64_t trace_id = 0;

  friend bool operator==(const SubmitRequest&, const SubmitRequest&) = default;
};

// SUBMIT payload: request_id u64 | seed u64 | flags u32 | strategy |
// sources | [trace extension]. The router routes on the seed and turns
// tracing on by setting the has-trace bit in the flags word's low byte and
// appending the extension ([trace_id u64][trace_flags u8], always the
// payload's last bytes when present).
inline constexpr size_t kSubmitSeedOffset = 8;
inline constexpr size_t kSubmitFlagsOffset = 16;
inline constexpr size_t kSubmitPeekBytes = 20;  // through the flags word
inline constexpr uint8_t kSubmitFlagHasTrace = 0x04;
inline constexpr size_t kSubmitTraceExtensionBytes = 9;

// One instance inside a BATCH_SUBMIT frame: just the per-request
// variation (seed + sources). Everything shared — admission mode,
// snapshot wish, strategy override — travels once per batch.
struct BatchItem {
  uint64_t seed = 0;
  core::SourceBinding sources;

  friend bool operator==(const BatchItem&, const BatchItem&) = default;
};

// Client -> server (v7): many instances under one header, one length
// prefix, and one contiguous ticket range. Item i is answered with an
// ordinary kSubmitResult (or kError) frame whose request_id is
// request_id_base + i — byte-identical to submitting it alone, so the
// batched and singleton paths share every response invariant. Responses
// may arrive out of order across shards, exactly like singleton submits.
// Batches carry no trace-context extension (per-item tracing still
// happens under the server's own sampling); a batch is the throughput
// path, traces ride the singleton path.
struct BatchSubmitRequest {
  uint64_t request_id_base = 0;  // tickets base .. base + items.size() - 1
  bool blocking = true;          // admission mode, shared by every item
  bool want_snapshot = false;    // snapshot wish, shared by every item
  std::string strategy;          // optional override, shared by every item
  std::vector<BatchItem> items;

  friend bool operator==(const BatchSubmitRequest&,
                         const BatchSubmitRequest&) = default;
};

// One attribute of a terminal snapshot on the wire.
struct SnapshotEntry {
  AttributeId attr = 0;
  core::AttrState state = core::AttrState::kUninitialized;
  Value value;

  friend bool operator==(const SnapshotEntry&, const SnapshotEntry&) = default;
};

// One span of the SubmitResult timing trailer: a per-stage timing the
// serving node (or a router on the way back) measured for this request.
// kind is an obs::SpanKind value; start_ns is relative to the recording
// node's trace begin (0 for router spans — cross-node monotonic clocks are
// not comparable, so only durations travel meaningfully across nodes).
struct WireSpan {
  uint8_t kind = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;

  friend bool operator==(const WireSpan&, const WireSpan&) = default;
};

// Server -> client: the outcome of one submitted instance.
struct SubmitResult {
  uint64_t request_id = 0;
  int32_t shard = 0;  // which shard executed it (diagnostic, deterministic)
  int64_t work = 0;
  int64_t wasted_work = 0;
  double response_time = 0;  // TimeInUnits (infinite) / sim ms (bounded)
  int32_t queries_launched = 0;
  int32_t speculative_launches = 0;
  // FingerprintResult() over the full result (every snapshot state/value
  // pair and every metrics field), so a client can verify byte-identical
  // execution without shipping the snapshot.
  uint64_t fingerprint = 0;
  // The concrete strategy that executed this instance, in paper notation:
  // the server's fixed strategy, or — on AUTO servers — the advisor's
  // per-request choice. Lets clients build per-strategy histograms and
  // audit AUTO decisions.
  std::string strategy;
  // Full terminal snapshot; present iff the request set want_snapshot.
  bool has_snapshot = false;
  std::vector<SnapshotEntry> snapshot;
  // Server timing block (the v4 trailer, ALWAYS present on the wire).
  // trace_id == 0 means "this request was not traced" and spans is empty;
  // otherwise each stage the serving node timed contributes one span, and
  // a router relaying the result appends its own router.forward span
  // without decoding the payload (the trailer is count-terminated for
  // exactly that O(1) append). At most 255 spans travel.
  uint64_t trace_id = 0;
  std::vector<WireSpan> spans;

  friend bool operator==(const SubmitResult&, const SubmitResult&) = default;
};

// SUBMIT_RESULT payload: request_id u64 | shard u32 | work i64 |
// wasted_work i64 | response_time f64 | queries u32 | speculative u32 |
// fingerprint u64 | ... The router's replica cross-check compares answers
// by the fingerprint at its fixed offset.
inline constexpr size_t kResultFingerprintOffset = 44;

// Server -> client: typed failure.
struct ErrorReply {
  // The request this error answers, or 0 when the failure is not
  // attributable to one request (e.g. a framing-level decode error).
  uint64_t request_id = 0;
  WireError code = WireError::kInternal;
  std::string message;

  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

// ERROR payload: request_id u64 | code u16 | message.
inline constexpr size_t kErrorCodeOffset = 8;

// One downstream server as seen by a routing tier: its address, the
// identity it reported in the connect-time Info handshake, and the
// router's per-backend counters. Surfaced inside the router's own Info
// response so a client (or operator probe) can see the whole fleet.
struct RouterBackendStats {
  std::string address;  // "host:port" as configured on the router
  std::string node_id;  // backend's self-reported identity (handshake)
  uint8_t connected = 0;  // >=1 pool connection is live right now
  int32_t shards = 0;     // backend's num_shards (handshake)
  // v5 replica placement: which hash slot this backend belongs to and its
  // position inside that slot's replica group (0 = preferred primary).
  int32_t slot = 0;
  int32_t replica = 0;
  int64_t forwarded = 0;  // submits sent to this backend
  int64_t answered = 0;   // results/typed errors relayed back from it
  int64_t unavailable = 0;  // submits refused: backend was disconnected
  int64_t reconnects = 0;   // successful re-handshakes after a drop
  // In-flight tickets transparently re-issued to a sibling replica after
  // this backend's connection dropped (the client never saw the failure).
  int64_t failovers = 0;

  friend bool operator==(const RouterBackendStats&,
                         const RouterBackendStats&) = default;
};

// The routing-tier section of ServerInfo. is_router discriminates a
// net::Router's Info from a plain dflow_serve's (whose section is empty).
struct RouterStats {
  uint8_t is_router = 0;
  // v5 fleet shape/health: replica group width (1 = unreplicated), total
  // transparent failovers, and the replica-divergence cross-check
  // counters (checks started, fingerprint mismatches — any nonzero
  // mismatch count means the determinism contract is broken somewhere —
  // and checks abandoned because a replica died mid-check).
  int32_t replicas = 1;
  int64_t failovers = 0;
  int64_t divergence_checks = 0;
  int64_t divergence_mismatches = 0;
  int64_t divergence_incomplete = 0;
  std::vector<RouterBackendStats> backends;

  friend bool operator==(const RouterStats&, const RouterStats&) = default;
};

// One row of the advisor's per-strategy selection histogram.
struct AdvisorStrategyCount {
  std::string strategy;
  int64_t count = 0;

  friend bool operator==(const AdvisorStrategyCount&,
                         const AdvisorStrategyCount&) = default;
};

// The strategy-advisor section of ServerInfo; all zero/empty unless the
// answering server runs AUTO. `fingerprint` digests everything that
// determines AUTO choices (calibration model, candidates, objective,
// explore schedule, schema salt) — a router refuses a fleet whose AUTO
// backends disagree on it, since they would serve different bytes for the
// same seed.
struct AdvisorInfo {
  uint8_t enabled = 0;
  uint64_t fingerprint = 0;
  int64_t selections = 0;
  int64_t explores = 0;
  std::vector<AdvisorStrategyCount> by_strategy;

  friend bool operator==(const AdvisorInfo&, const AdvisorInfo&) = default;
};

// Server -> client: configuration + live counters, answering kInfoRequest.
struct ServerInfo {
  int32_t num_shards = 0;
  std::string strategy;   // paper notation
  uint8_t backend = 0;    // core::BackendKind as its underlying value
  uint64_t queue_capacity_per_shard = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Self-reported identity of the answering process ("serve:<port>" /
  // "router:<port>" by default). The router's connect-time handshake
  // records it per backend, so misrouted fleet configs are visible.
  std::string node_id;
  // v5 fleet-epoch stamp: an operator-chosen deployment generation
  // (--fleet-epoch). A router refuses to start — and refuses to re-attach
  // a restarted backend — when replica-set members disagree on it, so a
  // half-upgraded or mixed-calibration fleet fails loudly at handshake
  // time instead of serving divergent bytes. 0 is a valid epoch (the
  // default); homogeneity is what is enforced, not a particular value.
  uint64_t fleet_epoch = 0;
  runtime::IngressStats ingress;
  // Filled in (is_router = 1) only when a net::Router answers.
  RouterStats router;
  // Filled in (enabled = 1) only when the answering server runs AUTO.
  AdvisorInfo advisor;

  friend bool operator==(const ServerInfo&, const ServerInfo&) = default;
};

// One structured journal entry on the wire (the health section). kind is
// an obs::EventKind value and severity an obs::Severity value; both travel
// as raw bytes and are range-checked on decode.
struct WireEvent {
  uint8_t kind = 1;
  uint8_t severity = 0;
  int64_t wall_ms = 0;
  std::string node;
  std::string detail;

  friend bool operator==(const WireEvent&, const WireEvent&) = default;
};

// One interval snapshot of a node's rate ring (obs::HealthSample on the
// wire). status is an obs::HealthStatus value (0 ok / 1 degraded /
// 2 critical), range-checked on decode.
struct WireHealthSample {
  int64_t wall_ms = 0;
  double interval_s = 0;
  double requests_per_s = 0;
  double failovers_per_s = 0;
  double cache_hit_rate = 0;
  double p95_wall_ms = 0;
  uint64_t queue_depth_max = 0;
  double queue_utilization = 0;
  uint8_t status = 0;

  friend bool operator==(const WireHealthSample&,
                         const WireHealthSample&) = default;
};

// One node's health section: verdict, the counters dflow_top cross-checks
// against the Prometheus exposition, the recent rate series (oldest
// first), and the journal tail (oldest first).
struct NodeHealth {
  uint8_t status = 0;     // obs::HealthStatus
  int64_t completed = 0;  // requests completed (router: results relayed)
  int64_t failovers = 0;
  int64_t divergence_checks = 0;
  int64_t divergence_mismatches = 0;
  int64_t events_total = 0;  // journal lifetime count (tail may be shorter)
  std::vector<WireHealthSample> series;
  std::vector<WireEvent> events;

  friend bool operator==(const NodeHealth&, const NodeHealth&) = default;
};

// One attribute's execution profile on the wire (the profile section):
// obs::AttrProfile plus the identity that makes rows self-describing, so
// dflow_top needs no schema to render the hot-attribute table.
struct WireAttrProfile {
  AttributeId attr = 0;
  std::string name;
  int64_t launches = 0;
  int64_t work_units = 0;
  int64_t speculative_launches = 0;
  int64_t wasted_work = 0;
  int64_t useful_completions = 0;

  friend bool operator==(const WireAttrProfile&,
                         const WireAttrProfile&) = default;
};

// One enabling condition's profile on the wire (obs::CondProfile + the
// guarded attribute's identity). Selectivity is derived client-side as
// true / (true + false); raw tallies travel so fleet merges stay exact.
struct WireCondProfile {
  AttributeId attr = 0;
  std::string name;
  int64_t evals = 0;
  int64_t true_outcomes = 0;
  int64_t false_outcomes = 0;
  int64_t unknown_outcomes = 0;
  int64_t eager_disables = 0;

  friend bool operator==(const WireCondProfile&,
                         const WireCondProfile&) = default;
};

// One request-class rollup row (obs::ClassProfile keyed by the CostModel
// class key).
struct WireClassProfile {
  uint64_t class_key = 0;
  int64_t requests = 0;
  int64_t work = 0;
  int64_t wasted_work = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  friend bool operator==(const WireClassProfile&,
                         const WireClassProfile&) = default;
};

// One node's plan profile: sampling shape, the three profile tables, and
// the EXPLAIN-style plan view (the schema DAG in DOT notation annotated
// with measured stats — rendered server-side because only the serving
// node holds the schema). A router's own entry is engine-less (empty
// tables); the fleet data lives in the backends' entries.
struct NodeProfile {
  uint64_t sample_period = 0;
  int64_t profiled_requests = 0;
  int64_t total_requests = 0;
  std::vector<WireAttrProfile> attrs;
  std::vector<WireCondProfile> conds;
  std::vector<WireClassProfile> classes;
  std::string plan_dot;

  friend bool operator==(const NodeProfile&, const NodeProfile&) = default;
};

// Client -> server: which STATS sections to answer with. `request_id` is
// echoed in the STATS reply; a router polling its backends puts a
// router-issued ticket here, so a late answer never fills a later poll.
struct StatsRequest {
  uint64_t request_id = 0;
  uint8_t sections = 0;  // kStats* bits

  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

// One node's entry in a STATS answer: its identity, then only the
// sections the request asked for (the others stay default-constructed and
// do not travel).
struct NodeStats {
  std::string node_id;
  uint8_t is_router = 0;
  std::string metrics;  // kStatsMetrics: Prometheus text exposition
  NodeHealth health;    // kStatsHealth
  NodeProfile profile;  // kStatsProfile

  friend bool operator==(const NodeStats&, const NodeStats&) = default;
};

// Server -> client: answers kStatsRequest. A plain server sends only
// `self`; a router sends its own entry plus one per backend (a backend
// that is down or missed the poll deadline contributes a synthesized
// entry — critical health, identity-only profile — so the fleet view
// never silently omits a member). `sections` repeats the request's mask
// and says which sections every entry carries.
struct StatsInfo {
  uint64_t request_id = 0;
  uint8_t sections = 0;
  NodeStats self;
  std::vector<NodeStats> backends;

  friend bool operator==(const StatsInfo&, const StatsInfo&) = default;
};

// --- Encoders. Each appends one complete frame (header + payload) to
// `out`, so consecutive encodes into the same buffer form a valid stream.
void EncodeSubmit(const SubmitRequest& msg, std::vector<uint8_t>* out);
void EncodeBatchSubmit(const BatchSubmitRequest& msg,
                       std::vector<uint8_t>* out);
void EncodeSubmitResult(const SubmitResult& msg, std::vector<uint8_t>* out);
void EncodeError(const ErrorReply& msg, std::vector<uint8_t>* out);
void EncodeInfoRequest(std::vector<uint8_t>* out);
void EncodeInfo(const ServerInfo& msg, std::vector<uint8_t>* out);
void EncodeGoodbye(std::vector<uint8_t>* out);
void EncodeGoodbyeAck(std::vector<uint8_t>* out);
void EncodeStatsRequest(const StatsRequest& msg, std::vector<uint8_t>* out);
void EncodeStats(const StatsInfo& msg, std::vector<uint8_t>* out);

// --- Decoders. Each parses the *payload* of a frame whose header named the
// matching type. Returns false (leaving *out unspecified) when the payload
// is truncated, has trailing garbage, or contains an out-of-range tag —
// the receiver should answer kMalformedFrame.
bool DecodeSubmit(const std::vector<uint8_t>& payload, SubmitRequest* out);
bool DecodeBatchSubmit(const std::vector<uint8_t>& payload,
                       BatchSubmitRequest* out);
bool DecodeSubmitResult(const std::vector<uint8_t>& payload,
                        SubmitResult* out);
bool DecodeError(const std::vector<uint8_t>& payload, ErrorReply* out);
bool DecodeInfo(const std::vector<uint8_t>& payload, ServerInfo* out);
bool DecodeStatsRequest(const std::vector<uint8_t>& payload,
                        StatsRequest* out);
bool DecodeStats(const std::vector<uint8_t>& payload, StatsInfo* out);

// One complete frame as split off the stream by the FrameAssembler. `type`
// is the raw on-wire byte: values outside MsgType are surfaced to the
// caller (who answers kUnsupportedType) rather than swallowed here.
struct Frame {
  uint8_t type = 0;
  std::vector<uint8_t> payload;
};

// Appends one complete frame carrying an already-built payload under a raw
// type byte. The router's fast path: it forwards frames after patching the
// correlation id in the payload, never re-encoding the message body.
void EncodeRawFrame(uint8_t type, const std::vector<uint8_t>& payload,
                    std::vector<uint8_t>* out);

// Appends one span to a raw kSubmitResult *payload* in place — the router's
// O(1) relay-path hook, no body decode. The v4 trailer is count-terminated
// (the last payload byte is the span count) precisely so this can patch it:
// insert 17 span bytes before the count, bump the count. When the trailer's
// trace_id is 0 (backend did not trace) it is patched to `trace_id` so the
// appended span still belongs to an identified trace. Returns false (payload
// untouched) when the payload is too short to carry a trailer or the span
// count is saturated at 255.
bool AppendResultSpan(std::vector<uint8_t>* payload, uint64_t trace_id,
                      uint8_t kind, uint64_t start_ns, uint64_t duration_ns);

// Little-endian peek/poke over raw payload bytes at the fixed offsets
// declared with the messages above. The routing tier uses them to route
// and translate tickets without decoding message bodies. Callers must
// bounds-check first.
uint64_t ReadLe64(const uint8_t* p);
void WriteLe64(uint64_t v, uint8_t* p);
uint16_t ReadLe16(const uint8_t* p);

// The correlation id led by every submit/result/error payload, or 0 when
// the payload is too short to carry one. Both front doors use it to keep
// even undecodable submits attributable (an unattributable error cannot
// be matched to a router ticket).
uint64_t PeekRequestId(const std::vector<uint8_t>& payload);

// Incremental stream decoder: feed it the bytes recv() produced, in
// whatever chunking the transport chose, and pop complete frames. After
// any error() != kNone the stream is unrecoverable (resynchronization is
// impossible once framing is lost) and Next() returns nullopt forever.
class FrameAssembler {
 public:
  explicit FrameAssembler(uint32_t max_payload_bytes = kDefaultMaxPayloadBytes);

  void Feed(const uint8_t* data, size_t size);
  // The next complete frame, or nullopt when more bytes are needed or the
  // stream is broken (check error()).
  std::optional<Frame> Next();

  WireError error() const { return error_; }
  // Bytes buffered but not yet consumed as frames (diagnostics).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  const uint32_t max_payload_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out as frames
  WireError error_ = WireError::kNone;
};

// A 64-bit digest of everything the determinism contract promises about an
// InstanceResult: every terminal-snapshot (state, value) pair and every
// InstanceMetrics field except instance_id (which numbers arrivals per
// engine and is excluded from the contract). Two results with equal
// fingerprints are byte-identical for the contract's purposes; the ingress
// stamps it into every SubmitResult so clients can verify remote execution
// against a local reference without shipping snapshots.
uint64_t FingerprintResult(const core::InstanceResult& result);

}  // namespace dflow::net

#endif  // DFLOW_NET_WIRE_PROTOCOL_H_
