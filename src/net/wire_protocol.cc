#include "net/wire_protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/rng.h"

namespace dflow::net {
namespace {

// --- Little-endian words: one memcpy of the whole word on little-endian
// hosts, a byte-at-a-time shift elsewhere.

template <class W>
W LoadLe(const uint8_t* p) {
  W v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(W));
  } else {
    for (size_t i = 0; i < sizeof(W); ++i) {
      v = static_cast<W>(v | static_cast<W>(p[i]) << (8 * i));
    }
  }
  return v;
}

template <class W>
void StoreLe(W v, uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(W));
  } else {
    for (size_t i = 0; i < sizeof(W); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

// The unsigned word as wide as the fixed-width field type F. An integer,
// enum or double travels as the little-endian bit pattern of its own
// width (two's complement for signed fields, IEEE-754 for doubles).
template <class F>
using WireWord = std::conditional_t<
    sizeof(F) == 1, uint8_t,
    std::conditional_t<sizeof(F) == 2, uint16_t,
                       std::conditional_t<sizeof(F) == 4, uint32_t,
                                          uint64_t>>>;

// --- The three walks. Each Layout(io, msg) below names a message's fields
// once, in wire order, and the Io decides what visiting a field means:
// Writer appends it, Reader parses it, Sizer counts its bytes. Dispatch is
// static (templates, no virtual calls). A string travels as a u32 length
// and its bytes. Layouts take mutable references so that one field list
// serves all three walks; only the Reader stores through them (see Store),
// so encoding and sizing never write to a message.

class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  template <class F>
  bool Word(const F& v) {
    if constexpr (sizeof(F) == 1) {
      out_->push_back(std::bit_cast<uint8_t>(v));
    } else {
      const size_t at = out_->size();
      out_->resize(at + sizeof(F));
      StoreLe(std::bit_cast<WireWord<F>>(v), out_->data() + at);
    }
    return true;
  }

  bool Text(const std::string& s) {
    Word(static_cast<uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
    return true;
  }

  // Encoding trusts its input: only the Reader enforces checks.
  bool Check(bool) { return true; }

 private:
  std::vector<uint8_t>* out_;
};

class Sizer {
 public:
  static constexpr bool kReading = false;

  template <class F>
  bool Word(const F&) {
    bytes += sizeof(F);
    return true;
  }

  bool Text(const std::string& s) {
    bytes += sizeof(uint32_t) + s.size();
    return true;
  }

  bool Check(bool) { return true; }

  size_t bytes = 0;
};

// Bounds-checked: every visit fails (returns false, poisoning the reader)
// on a short read or a failed Check; Done() afterwards rejects trailing
// garbage, so a decode succeeds only on an exact parse.
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  template <class F>
  bool Word(F& v) {
    // A bool must be range-checked first (Layout(io, bool&) does).
    static_assert(!std::is_same_v<F, bool>);
    if (!Need(sizeof(F))) return false;
    v = std::bit_cast<F>(LoadLe<WireWord<F>>(data_.data() + pos_));
    pos_ += sizeof(F);
    return true;
  }

  bool Text(std::string& s) {
    uint32_t size;
    if (!Word(size) || !Need(size)) return false;
    s.assign(reinterpret_cast<const char*>(data_.data()) + pos_, size);
    pos_ += size;
    return true;
  }

  bool Check(bool ok) { return ok || Fail(); }

  // The whole payload's size: what bounds a hostile element count.
  size_t size() const { return data_.size(); }
  // Unconsumed bytes (0 once poisoned), and the payload's last byte — the
  // SubmitResult trailer is count-terminated.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  uint8_t last_byte() const { return data_.back(); }

  // True iff every byte was consumed and nothing failed.
  bool Done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) { return Check(ok_ && data_.size() - pos_ >= n); }
  bool Fail() {
    ok_ = false;
    return false;
  }

  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Decoding stores `v` into `field`; encoding and sizing leave it alone.
template <class Io, class T, class V>
bool Store(Io&, T& field, V&& v) {
  if constexpr (Io::kReading) field = std::forward<V>(v);
  return true;
}

// --- Field kinds every layout is built from.

template <class Io, class F>
  requires(std::is_arithmetic_v<F> || std::is_enum_v<F>) &&
          (!std::is_same_v<F, bool>)
bool Layout(Io& io, F& field) {
  return io.Word(field);
}

template <class Io>
bool Layout(Io& io, std::string& s) {
  return io.Text(s);
}

// A bool is one byte, 0 or 1.
template <class Io>
bool Layout(Io& io, bool& b) {
  uint8_t byte = b ? 1 : 0;
  return io.Word(byte) && io.Check(byte <= 1) && Store(io, b, byte == 1);
}

// A byte or enum that must lie in [lo, hi]. These are raw tags of
// append-only taxonomies (obs enums, error codes, attribute states), so
// out of range means corruption or a newer peer.
template <class F>
struct Ranged {
  F& field;
  F lo;
  F hi;
};

template <class F>
Ranged<F> InRange(F& field, std::type_identity_t<F> lo,
                  std::type_identity_t<F> hi) {
  return {field, lo, hi};
}

template <class Io, class F>
bool Layout(Io& io, Ranged<F> r) {
  return io.Word(r.field) && io.Check(r.lo <= r.field && r.field <= r.hi);
}

// A u32 flag word whose bit i is the i-th bool. A set bit beyond them is
// malformed: an unknown flag is a forward-compat error, not ignorable.
template <size_t N>
struct FlagWord {
  bool* bits[N];
};

template <class... B>
FlagWord<sizeof...(B)> Flags(B&... bits) {
  return {{&bits...}};
}

template <class Io, size_t N>
bool Layout(Io& io, FlagWord<N> flags) {
  uint32_t word = 0;
  for (size_t i = 0; i < N; ++i) word |= uint32_t{*flags.bits[i]} << i;
  if (!io.Word(word) || !io.Check(word >> N == 0)) return false;
  for (size_t i = 0; i < N; ++i) {
    Store(io, *flags.bits[i], (word >> i & 1) != 0);
  }
  return true;
}

template <class Io, class... Fs>
bool Fields(Io& io, Fs&&... fields) {
  return (Layout(io, fields) && ...);
}

// A section that travels only when `present`; absent, it decodes to its
// default.
template <class Io, class T>
bool Optional(Io& io, bool present, T& section) {
  return present ? Layout(io, section) : Store(io, section, T{});
}

// The fewest bytes one T can take on the wire: the Sizer's walk over a
// default T (empty strings and tables, a null Value). `ctx` is what the
// layout of T depends on besides T (a STATS entry's section mask).
template <class T, class... Ctx>
size_t MinWireBytes(const Ctx&... ctx) {
  const auto walk = [&] {
    Sizer sizer;
    T item{};
    Layout(sizer, item, ctx...);
    return sizer.bytes;
  };
  if constexpr (sizeof...(Ctx) == 0) {
    static const size_t bytes = walk();
    return bytes;
  } else {
    return walk();
  }
}

// A table: a u32 count, then each element. A decoded count is bounded by
// how many smallest-possible elements the payload could hold before the
// reserve, so a hostile count cannot drive a huge one, and elements are
// constructed only as they parse.
template <class Io, class T, class... Ctx>
bool Layout(Io& io, std::vector<T>& items, const Ctx&... ctx) {
  uint32_t count = static_cast<uint32_t>(items.size());
  if (!io.Word(count)) return false;
  if constexpr (Io::kReading) {
    if (!io.Check(count <= io.size() / MinWireBytes<T>(ctx...))) return false;
    items.clear();
    items.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!Layout(io, items.emplace_back(), ctx...)) return false;
    }
    return true;
  }
  for (T& item : items) {
    if (!Layout(io, item, ctx...)) return false;
  }
  return true;
}

// --- The message layouts.

// One alternative of a Value: its payload field, and on decode the Value
// rebuilt from it (only then: encoding and sizing build no Value).
template <class Io, class F, class Make>
bool ValueAs(Io& io, Value& value, F field, Make make) {
  if (!Layout(io, field)) return false;
  if constexpr (Io::kReading) value = make(std::move(field));
  return true;
}

template <class Io>
bool Layout(Io& io, Value& value) {
  uint8_t tag = static_cast<uint8_t>(value.type());
  // Range-check before casting: Value::Type has no fixed underlying type,
  // so static_cast from an out-of-range wire byte would be UB.
  if (!io.Word(tag) ||
      !io.Check(tag <= static_cast<uint8_t>(Value::Type::kString))) {
    return false;
  }
  constexpr bool kReading = Io::kReading;
  switch (static_cast<Value::Type>(tag)) {
    case Value::Type::kNull:
      if constexpr (kReading) value = Value::Null();
      return true;
    case Value::Type::kBool:
      return ValueAs(io, value, !kReading && value.bool_value(), Value::Bool);
    case Value::Type::kInt:
      return ValueAs(io, value, kReading ? int64_t{0} : value.int_value(),
                     Value::Int);
    case Value::Type::kDouble:
      return ValueAs(io, value, kReading ? 0.0 : value.double_value(),
                     Value::Double);
    case Value::Type::kString:
      if constexpr (kReading) {
        return ValueAs(io, value, std::string(), Value::String);
      } else {
        return io.Text(value.string_value());
      }
  }
  return false;
}

// One source binding.
template <class Io>
bool Layout(Io& io, std::pair<AttributeId, Value>& binding) {
  return Fields(io, binding.first, binding.second);
}

template <class Io>
bool Layout(Io& io, SubmitRequest& m) {
  if (!Fields(io, m.request_id, m.seed,
              Flags(m.blocking, m.want_snapshot, m.has_trace), m.strategy,
              m.sources)) {
    return false;
  }
  // The v4 trace-context extension trails the sources, so a router adds it
  // by appending kSubmitTraceExtensionBytes and setting one flag bit.
  if (!m.has_trace) return Store(io, m.trace_id, 0);
  uint8_t trace_flags = 0;  // reserved; receivers reject nonzero
  return Fields(io, m.trace_id, InRange(trace_flags, 0, 0));
}

template <class Io>
bool Layout(Io& io, BatchItem& m) {
  return Fields(io, m.seed, m.sources);
}

template <class Io>
bool Layout(Io& io, BatchSubmitRequest& m) {
  // request_id_base leads the payload like every correlation id, so
  // PeekRequestId attributes even an undecodable batch. Batches share the
  // singleton flag word but carry no trace-context extension, so the
  // has-trace bit is out of range here, not just unknown. Responses carry
  // request_id_base + i, so the ticket range must not wrap u64.
  return Fields(io, m.request_id_base, Flags(m.blocking, m.want_snapshot),
                m.strategy, m.items) &&
         io.Check(m.request_id_base <= UINT64_MAX - m.items.size());
}

template <class Io>
bool Layout(Io& io, SnapshotEntry& m) {
  return Fields(io, m.attr,
                InRange(m.state, core::AttrState::kUninitialized,
                        core::AttrState::kDisabled),
                m.value);
}

// Valid obs::SpanKind range on the wire.
constexpr uint8_t kMinWireSpanKind = 1;
constexpr uint8_t kMaxWireSpanKind = 7;
// The trailer's count byte caps the spans that travel; far above the
// 7-kind taxonomy times any sane router depth. Excess spans are dropped
// rather than corrupting framing.
constexpr uint8_t kMaxWireSpans = 255;

template <class Io>
bool Layout(Io& io, WireSpan& m) {
  return Fields(io, InRange(m.kind, kMinWireSpanKind, kMaxWireSpanKind),
                m.start_ns, m.duration_ns);
}

// The SubmitResult timing trailer, always present:
// [trace_id u64][count x WireSpan][count u8]. The span count terminates
// the payload (rather than leading the trailer) so a router can append its
// own span without decoding the body (AppendResultSpan). On decode the
// count must name exactly the spans between the trace id and itself, and
// an untraced result (trace_id 0) carries none.
template <class Io>
bool SpanTrailer(Io& io, uint64_t& trace_id, std::vector<WireSpan>& spans) {
  uint8_t count =
      static_cast<uint8_t>(std::min<size_t>(spans.size(), kMaxWireSpans));
  if (!io.Word(trace_id)) return false;
  if constexpr (Io::kReading) {
    count = io.last_byte();
    if (!io.Check(io.remaining() ==
                      MinWireBytes<WireSpan>() * count + sizeof(count) &&
                  (trace_id != 0 || count == 0))) {
      return false;
    }
    spans.clear();
    spans.resize(count);
  }
  for (size_t i = 0; i < count; ++i) {
    if (!Layout(io, spans[i])) return false;
  }
  return io.Word(count);
}

// The trailer's size when it carries `count` spans.
size_t TrailerBytes(size_t count) {
  Sizer sizer;
  uint64_t trace_id = 0;
  std::vector<WireSpan> none;
  SpanTrailer(sizer, trace_id, none);
  return sizer.bytes + count * MinWireBytes<WireSpan>();
}

template <class Io>
bool Layout(Io& io, SubmitResult& m) {
  return Fields(io, m.request_id, m.shard, m.work, m.wasted_work,
                m.response_time, m.queries_launched, m.speculative_launches,
                m.fingerprint, m.strategy, m.has_snapshot) &&
         Optional(io, m.has_snapshot, m.snapshot) &&
         SpanTrailer(io, m.trace_id, m.spans);
}

template <class Io>
bool Layout(Io& io, ErrorReply& m) {
  return Fields(io, m.request_id,
                InRange(m.code, WireError::kRejectedBusy,
                        WireError::kBackendUnavailable),
                m.message);
}

template <class Io>
bool Layout(Io& io, runtime::IngressStats& s) {
  return Fields(io, s.connections_opened, s.connections_closed,
                s.requests_accepted, s.requests_rejected_busy,
                s.requests_rejected_shutdown, s.decode_errors,
                s.protocol_errors, s.info_requests, s.bytes_in, s.bytes_out,
                s.outbox_inflight_hwm, s.outbox_bytes_written,
                s.outbox_write_stalls);
}

template <class Io>
bool Layout(Io& io, RouterBackendStats& m) {
  return Fields(io, m.address, m.node_id, InRange(m.connected, 0, 1),
                m.shards, m.slot, m.replica, m.forwarded, m.answered,
                m.unavailable, m.reconnects, m.failovers);
}

template <class Io>
bool Layout(Io& io, RouterStats& m) {
  return Fields(io, InRange(m.is_router, 0, 1), m.replicas, m.failovers,
                m.divergence_checks, m.divergence_mismatches,
                m.divergence_incomplete, m.backends);
}

template <class Io>
bool Layout(Io& io, AdvisorStrategyCount& m) {
  return Fields(io, m.strategy, m.count);
}

template <class Io>
bool Layout(Io& io, AdvisorInfo& m) {
  return Fields(io, InRange(m.enabled, 0, 1), m.fingerprint, m.selections,
                m.explores, m.by_strategy);
}

template <class Io>
bool Layout(Io& io, ServerInfo& m) {
  return Fields(io, m.num_shards, m.strategy, m.backend,
                m.queue_capacity_per_shard, m.completed, m.rejected,
                m.cache_hits, m.cache_misses, m.node_id, m.fleet_epoch,
                m.ingress, m.router, m.advisor);
}

// Wire ranges of the obs enums the health section carries as raw bytes
// (obs::EventKind, obs::Severity, obs::HealthStatus).
constexpr uint8_t kMinWireEventKind = 1;
constexpr uint8_t kMaxWireEventKind = 11;  // through profile_snapshot
constexpr uint8_t kMaxWireSeverity = 2;
constexpr uint8_t kMaxWireHealthStatus = 2;

template <class Io>
bool Layout(Io& io, WireEvent& m) {
  return Fields(io, InRange(m.kind, kMinWireEventKind, kMaxWireEventKind),
                InRange(m.severity, 0, kMaxWireSeverity), m.wall_ms, m.node,
                m.detail);
}

template <class Io>
bool Layout(Io& io, WireHealthSample& m) {
  return Fields(io, m.wall_ms, m.interval_s, m.requests_per_s,
                m.failovers_per_s, m.cache_hit_rate, m.p95_wall_ms,
                m.queue_depth_max, m.queue_utilization,
                InRange(m.status, 0, kMaxWireHealthStatus));
}

template <class Io>
bool Layout(Io& io, NodeHealth& m) {
  return Fields(io, InRange(m.status, 0, kMaxWireHealthStatus), m.completed,
                m.failovers, m.divergence_checks, m.divergence_mismatches,
                m.events_total, m.series, m.events);
}

template <class Io>
bool Layout(Io& io, WireAttrProfile& m) {
  return Fields(io, m.attr, m.name, m.launches, m.work_units,
                m.speculative_launches, m.wasted_work, m.useful_completions);
}

template <class Io>
bool Layout(Io& io, WireCondProfile& m) {
  return Fields(io, m.attr, m.name, m.evals, m.true_outcomes,
                m.false_outcomes, m.unknown_outcomes, m.eager_disables);
}

template <class Io>
bool Layout(Io& io, WireClassProfile& m) {
  return Fields(io, m.class_key, m.requests, m.work, m.wasted_work,
                m.cache_hits, m.cache_misses);
}

template <class Io>
bool Layout(Io& io, NodeProfile& m) {
  return Fields(io, m.sample_period, m.profiled_requests, m.total_requests,
                m.attrs, m.conds, m.classes, m.plan_dot);
}

// A STATS section mask: any bit beyond the known sections is malformed.
template <class Io>
bool SectionMask(Io& io, uint8_t& sections) {
  return io.Word(sections) && io.Check((sections & ~kStatsAllSections) == 0);
}

template <class Io>
bool Layout(Io& io, StatsRequest& m) {
  return io.Word(m.request_id) && SectionMask(io, m.sections);
}

// A STATS node entry: identity, then the sections `sections` names, in
// bit order.
template <class Io>
bool Layout(Io& io, NodeStats& m, uint8_t sections) {
  return Fields(io, m.node_id, InRange(m.is_router, 0, 1)) &&
         Optional(io, sections & kStatsMetrics, m.metrics) &&
         Optional(io, sections & kStatsHealth, m.health) &&
         Optional(io, sections & kStatsProfile, m.profile);
}

template <class Io>
bool Layout(Io& io, StatsInfo& m) {
  return io.Word(m.request_id) && SectionMask(io, m.sections) &&
         Layout(io, m.self, m.sections) &&
         Layout(io, m.backends, m.sections);
}

// --- Frames.

// Appends a frame header, returning its offset; the payload is then
// appended in place and SealFrame patches in its length.
size_t BeginFrame(uint8_t type, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  const uint8_t header[kFrameHeaderBytes] = {kMagic0, kMagic1, kWireVersion,
                                             type};
  out->insert(out->end(), header, header + kFrameHeaderBytes);
  return at;
}

void SealFrame(size_t at, std::vector<uint8_t>* out) {
  StoreLe(static_cast<uint32_t>(out->size() - at - kFrameHeaderBytes),
          out->data() + at + 4);
}

template <class T>
size_t PayloadBytes(const T& msg) {
  Sizer sizer;
  Layout(sizer, const_cast<T&>(msg));
  return sizer.bytes;
}

template <class T>
void Encode(MsgType type, const T& msg, std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(static_cast<uint8_t>(type), out);
  Writer writer(out);
  Layout(writer, const_cast<T&>(msg));
  SealFrame(frame, out);
}

template <class T>
bool Decode(const std::vector<uint8_t>& payload, T* out) {
  Reader reader(payload);
  return Layout(reader, *out) && reader.Done();
}

}  // namespace

const char* ToString(WireError error) {
  switch (error) {
    case WireError::kNone: return "OK";
    case WireError::kRejectedBusy: return "REJECTED_BUSY";
    case WireError::kMalformedFrame: return "MALFORMED_FRAME";
    case WireError::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case WireError::kUnsupportedType: return "UNSUPPORTED_TYPE";
    case WireError::kFrameTooLarge: return "FRAME_TOO_LARGE";
    case WireError::kBadStrategy: return "BAD_STRATEGY";
    case WireError::kShuttingDown: return "SHUTTING_DOWN";
    case WireError::kInternal: return "INTERNAL";
    case WireError::kBackendUnavailable: return "BACKEND_UNAVAILABLE";
  }
  return "UNKNOWN";
}

void EncodeSubmit(const SubmitRequest& msg, std::vector<uint8_t>* out) {
  Encode(MsgType::kSubmit, msg, out);
}

void EncodeBatchSubmit(const BatchSubmitRequest& msg,
                       std::vector<uint8_t>* out) {
  Encode(MsgType::kBatchSubmit, msg, out);
}

void EncodeSubmitResult(const SubmitResult& msg, std::vector<uint8_t>* out) {
  // Reserve the whole frame once. Growth stays at least geometric, so a
  // caller appending many frames to one buffer stays linear.
  const size_t need = out->size() + kFrameHeaderBytes + PayloadBytes(msg);
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  Encode(MsgType::kSubmitResult, msg, out);
}

void EncodeError(const ErrorReply& msg, std::vector<uint8_t>* out) {
  Encode(MsgType::kError, msg, out);
}

void EncodeInfoRequest(std::vector<uint8_t>* out) {
  SealFrame(BeginFrame(static_cast<uint8_t>(MsgType::kInfoRequest), out),
            out);
}

void EncodeInfo(const ServerInfo& msg, std::vector<uint8_t>* out) {
  Encode(MsgType::kInfo, msg, out);
}

void EncodeGoodbye(std::vector<uint8_t>* out) {
  SealFrame(BeginFrame(static_cast<uint8_t>(MsgType::kGoodbye), out), out);
}

void EncodeGoodbyeAck(std::vector<uint8_t>* out) {
  SealFrame(BeginFrame(static_cast<uint8_t>(MsgType::kGoodbyeAck), out),
            out);
}

void EncodeStatsRequest(const StatsRequest& msg, std::vector<uint8_t>* out) {
  Encode(MsgType::kStatsRequest, msg, out);
}

void EncodeStats(const StatsInfo& msg, std::vector<uint8_t>* out) {
  Encode(MsgType::kStats, msg, out);
}

bool DecodeSubmit(const std::vector<uint8_t>& payload, SubmitRequest* out) {
  return Decode(payload, out);
}

bool DecodeBatchSubmit(const std::vector<uint8_t>& payload,
                       BatchSubmitRequest* out) {
  return Decode(payload, out);
}

bool DecodeSubmitResult(const std::vector<uint8_t>& payload,
                        SubmitResult* out) {
  return Decode(payload, out);
}

bool DecodeError(const std::vector<uint8_t>& payload, ErrorReply* out) {
  return Decode(payload, out);
}

bool DecodeInfo(const std::vector<uint8_t>& payload, ServerInfo* out) {
  return Decode(payload, out);
}

bool DecodeStatsRequest(const std::vector<uint8_t>& payload,
                        StatsRequest* out) {
  return Decode(payload, out);
}

bool DecodeStats(const std::vector<uint8_t>& payload, StatsInfo* out) {
  return Decode(payload, out);
}

uint64_t ReadLe64(const uint8_t* p) { return LoadLe<uint64_t>(p); }

void WriteLe64(uint64_t v, uint8_t* p) { StoreLe(v, p); }

uint16_t ReadLe16(const uint8_t* p) { return LoadLe<uint16_t>(p); }

uint64_t PeekRequestId(const std::vector<uint8_t>& payload) {
  return payload.size() >= kRequestIdBytes ? ReadLe64(payload.data()) : 0;
}

void EncodeRawFrame(uint8_t type, const std::vector<uint8_t>& payload,
                    std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(type, out);
  out->insert(out->end(), payload.begin(), payload.end());
  SealFrame(frame, out);
}

bool AppendResultSpan(std::vector<uint8_t>* payload, uint64_t trace_id,
                      uint8_t kind, uint64_t start_ns, uint64_t duration_ns) {
  if (payload->size() < TrailerBytes(0)) return false;
  const uint8_t count = payload->back();
  if (count == kMaxWireSpans) return false;  // saturated; drop the span
  const size_t trailer_bytes = TrailerBytes(count);
  if (payload->size() < trailer_bytes) return false;
  // An untraced backend result (trace_id 0) adopts the appender's id, so
  // the span still belongs to an identified trace downstream.
  uint8_t* trace_id_at = payload->data() + payload->size() - trailer_bytes;
  if (ReadLe64(trace_id_at) == 0) WriteLe64(trace_id, trace_id_at);
  // The new span takes the count byte's place, and the bumped count
  // terminates the payload again.
  payload->pop_back();
  Writer writer(payload);
  WireSpan span{kind, start_ns, duration_ns};
  return Layout(writer, span) && writer.Word(static_cast<uint8_t>(count + 1));
}

FrameAssembler::FrameAssembler(uint32_t max_payload_bytes)
    : max_payload_bytes_(max_payload_bytes) {}

void FrameAssembler::Feed(const uint8_t* data, size_t size) {
  if (error_ != WireError::kNone) return;
  // Compact the consumed prefix before growing, so a long-lived connection
  // keeps its buffer proportional to in-flight data, not total traffic.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameAssembler::Next() {
  if (error_ != WireError::kNone) return std::nullopt;
  if (buffer_.size() - consumed_ < kFrameHeaderBytes) return std::nullopt;
  const uint8_t* header = buffer_.data() + consumed_;
  if (header[0] != kMagic0 || header[1] != kMagic1) {
    error_ = WireError::kMalformedFrame;
    return std::nullopt;
  }
  if (header[2] != kWireVersion) {
    error_ = WireError::kUnsupportedVersion;
    return std::nullopt;
  }
  const uint32_t payload_len = LoadLe<uint32_t>(header + 4);
  if (payload_len > max_payload_bytes_) {
    error_ = WireError::kFrameTooLarge;
    return std::nullopt;
  }
  if (buffer_.size() - consumed_ < kFrameHeaderBytes + payload_len) {
    return std::nullopt;  // wait for the rest of the payload
  }
  Frame frame;
  frame.type = header[3];
  frame.payload.assign(header + kFrameHeaderBytes,
                       header + kFrameHeaderBytes + payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return frame;
}

uint64_t FingerprintResult(const core::InstanceResult& result) {
  uint64_t h = 0xd5f10f1e55a1ULL;
  const core::Snapshot& snapshot = result.snapshot;
  const int n = snapshot.schema().num_attributes();
  h = Rng::Mix(h, static_cast<uint64_t>(n));
  for (int a = 0; a < n; ++a) {
    const auto attr = static_cast<AttributeId>(a);
    h = Rng::Mix(h, static_cast<uint64_t>(snapshot.state(attr)));
    h = HashValue(h, snapshot.value(attr));
  }
  const core::InstanceMetrics& m = result.metrics;
  h = Rng::Mix(h, static_cast<uint64_t>(m.work));
  h = Rng::Mix(h, static_cast<uint64_t>(m.wasted_work));
  h = Rng::Mix(h, std::bit_cast<uint64_t>(m.ResponseTime()));
  h = Rng::Mix(h, static_cast<uint64_t>(m.queries_launched));
  h = Rng::Mix(h, static_cast<uint64_t>(m.speculative_launches));
  h = Rng::Mix(h, static_cast<uint64_t>(m.eager_disables));
  h = Rng::Mix(h, static_cast<uint64_t>(m.unneeded_skipped));
  h = Rng::Mix(h, static_cast<uint64_t>(m.prequalifier_passes));
  h = Rng::Mix(h, std::bit_cast<uint64_t>(m.inflight_area));
  return h;
}

}  // namespace dflow::net
