#include "net/wire_protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.h"

namespace dflow::net {
namespace {

// --- Little-endian primitive writers appending to a byte vector.

void PutU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }

// Appends `v` little-endian: one resize and one memcpy of the whole word
// on little-endian hosts, a byte-at-a-time shift elsewhere.
template <typename Word>
void PutWord(Word v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(Word));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out->data() + at, &v, sizeof(Word));
  } else {
    for (size_t i = 0; i < sizeof(Word); ++i) {
      (*out)[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

void PutU16(uint16_t v, std::vector<uint8_t>* out) { PutWord(v, out); }
void PutU32(uint32_t v, std::vector<uint8_t>* out) { PutWord(v, out); }
void PutU64(uint64_t v, std::vector<uint8_t>* out) { PutWord(v, out); }

void PutI64(int64_t v, std::vector<uint8_t>* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutDouble(double v, std::vector<uint8_t>* out) {
  PutU64(std::bit_cast<uint64_t>(v), out);
}

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

void PutValue(const Value& value, std::vector<uint8_t>* out) {
  PutU8(static_cast<uint8_t>(value.type()), out);
  switch (value.type()) {
    case Value::Type::kNull:
      break;
    case Value::Type::kBool:
      PutU8(value.bool_value() ? 1 : 0, out);
      break;
    case Value::Type::kInt:
      PutI64(value.int_value(), out);
      break;
    case Value::Type::kDouble:
      PutDouble(value.double_value(), out);
      break;
    case Value::Type::kString:
      PutString(value.string_value(), out);
      break;
  }
}

// The encoded size of one Value (PutValue's output).
size_t ValueWireBytes(const Value& value) {
  switch (value.type()) {
    case Value::Type::kNull:
      return 1;
    case Value::Type::kBool:
      return 2;
    case Value::Type::kInt:
    case Value::Type::kDouble:
      return 9;
    case Value::Type::kString:
      return 5 + value.string_value().size();
  }
  return 1;
}

// --- Bounds-checked little-endian reader over a payload. Every Get fails
// (returns false, poisoning the reader) on a short read; Done() afterwards
// rejects trailing garbage, so a decode succeeds only on an exact parse.

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = data_[pos_++];
    return true;
  }

  bool GetU16(uint16_t* v) {
    if (!Need(2)) return false;
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (!Need(4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (!Need(8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool GetI64(int64_t* v) {
    uint64_t raw;
    if (!GetU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }

  bool GetDouble(double* v) {
    uint64_t raw;
    if (!GetU64(&raw)) return false;
    *v = std::bit_cast<double>(raw);
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t size;
    if (!GetU32(&size) || !Need(size)) return false;
    s->assign(reinterpret_cast<const char*>(data_.data()) + pos_, size);
    pos_ += size;
    return true;
  }

  bool GetValue(Value* value) {
    uint8_t tag;
    if (!GetU8(&tag)) return false;
    // Range-check before casting: Value::Type has no fixed underlying
    // type, so static_cast from an out-of-range wire byte would be UB.
    if (tag > static_cast<uint8_t>(Value::Type::kString)) return Fail();
    switch (static_cast<Value::Type>(tag)) {
      case Value::Type::kNull:
        *value = Value::Null();
        return true;
      case Value::Type::kBool: {
        uint8_t b;
        if (!GetU8(&b) || b > 1) return Fail();
        *value = Value::Bool(b == 1);
        return true;
      }
      case Value::Type::kInt: {
        int64_t i;
        if (!GetI64(&i)) return false;
        *value = Value::Int(i);
        return true;
      }
      case Value::Type::kDouble: {
        double d;
        if (!GetDouble(&d)) return false;
        *value = Value::Double(d);
        return true;
      }
      case Value::Type::kString: {
        std::string s;
        if (!GetString(&s)) return false;
        *value = Value::String(std::move(s));
        return true;
      }
    }
    return Fail();  // unknown type tag
  }

  // True iff every byte was consumed and nothing failed.
  bool Done() const { return ok_ && pos_ == data_.size(); }

  // Unconsumed bytes (0 once poisoned) — lets the SubmitResult decoder
  // size the count-terminated timing trailer before walking it.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) return Fail();
    return true;
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Reserves a frame header in `out`, returning the patch offset; the
// payload is then appended in place and SealFrame fills in its length.
size_t BeginFrame(MsgType type, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  PutU8(kMagic0, out);
  PutU8(kMagic1, out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  PutU32(0, out);  // payload length, patched by SealFrame
  return header_at;
}

void SealFrame(size_t header_at, std::vector<uint8_t>* out) {
  const uint32_t payload_len =
      static_cast<uint32_t>(out->size() - header_at - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload_len >> (8 * i));
  }
}

constexpr uint32_t kFlagBlocking = 1u << 0;
constexpr uint32_t kFlagWantSnapshot = 1u << 1;
// v4: the submit payload carries a trailing trace-context extension
// ([trace_id u64][trace_flags u8], after the sources). The routing tier
// sets this bit by patching the flags word in place at offset 16 — keep
// that offset stable.
constexpr uint32_t kFlagHasTrace = 1u << 2;
constexpr uint32_t kKnownFlags =
    kFlagBlocking | kFlagWantSnapshot | kFlagHasTrace;

// The SubmitResult timing trailer: [trace_id u64][count x 17-byte spans]
// [count u8]. The span count terminates the payload (rather than leading
// the trailer) so a router can append its own span without decoding the
// body: insert 17 bytes before the last byte, bump it.
constexpr size_t kWireSpanBytes = 17;
constexpr size_t kMinTrailerBytes = 9;  // trace_id + count, zero spans
// Valid obs::SpanKind range on the wire (kMinSpanKind..kMaxSpanKind).
constexpr uint8_t kMinWireSpanKind = 1;
constexpr uint8_t kMaxWireSpanKind = 7;

bool GetSnapshotEntry(Reader* reader, SnapshotEntry* entry) {
  uint32_t attr;
  uint8_t state;
  if (!reader->GetU32(&attr) || !reader->GetU8(&state) ||
      !reader->GetValue(&entry->value)) {
    return false;
  }
  if (state > static_cast<uint8_t>(core::AttrState::kDisabled)) return false;
  entry->attr = static_cast<AttributeId>(attr);
  entry->state = static_cast<core::AttrState>(state);
  return true;
}

void PutIngressStats(const runtime::IngressStats& s,
                     std::vector<uint8_t>* out) {
  PutI64(s.connections_opened, out);
  PutI64(s.connections_closed, out);
  PutI64(s.requests_accepted, out);
  PutI64(s.requests_rejected_busy, out);
  PutI64(s.requests_rejected_shutdown, out);
  PutI64(s.decode_errors, out);
  PutI64(s.protocol_errors, out);
  PutI64(s.info_requests, out);
  PutI64(s.bytes_in, out);
  PutI64(s.bytes_out, out);
  PutI64(s.outbox_inflight_hwm, out);
  PutI64(s.outbox_bytes_written, out);
  PutI64(s.outbox_write_stalls, out);
}

// --- Health-section helpers. Wire byte ranges for the obs enums carried
// as raw u8 (obs::EventKind, obs::Severity, obs::HealthStatus); decoders
// range-check before the structs ever reach obs code.
constexpr uint8_t kMinWireEventKind = 1;
constexpr uint8_t kMaxWireEventKind = 11;  // through profile_snapshot
constexpr uint8_t kMaxWireSeverity = 2;
constexpr uint8_t kMaxWireHealthStatus = 2;
// Minimum payload bytes of each variable-count entry, bounding hostile
// counts before a reserve: an event is 2 flag bytes + wall_ms + two empty
// strings; a sample is a fixed 65-byte block; a health section is the
// status byte + five i64 counters + two empty vectors.
constexpr size_t kMinWireEventBytes = 18;
constexpr size_t kWireHealthSampleBytes = 65;
constexpr size_t kMinNodeHealthBytes = 49;

void PutWireEvent(const WireEvent& event, std::vector<uint8_t>* out) {
  PutU8(event.kind, out);
  PutU8(event.severity, out);
  PutI64(event.wall_ms, out);
  PutString(event.node, out);
  PutString(event.detail, out);
}

bool GetWireEvent(Reader* reader, WireEvent* event) {
  return reader->GetU8(&event->kind) && event->kind >= kMinWireEventKind &&
         event->kind <= kMaxWireEventKind &&
         reader->GetU8(&event->severity) &&
         event->severity <= kMaxWireSeverity &&
         reader->GetI64(&event->wall_ms) && reader->GetString(&event->node) &&
         reader->GetString(&event->detail);
}

void PutHealthSample(const WireHealthSample& sample,
                     std::vector<uint8_t>* out) {
  PutI64(sample.wall_ms, out);
  PutDouble(sample.interval_s, out);
  PutDouble(sample.requests_per_s, out);
  PutDouble(sample.failovers_per_s, out);
  PutDouble(sample.cache_hit_rate, out);
  PutDouble(sample.p95_wall_ms, out);
  PutU64(sample.queue_depth_max, out);
  PutDouble(sample.queue_utilization, out);
  PutU8(sample.status, out);
}

bool GetHealthSample(Reader* reader, WireHealthSample* sample) {
  return reader->GetI64(&sample->wall_ms) &&
         reader->GetDouble(&sample->interval_s) &&
         reader->GetDouble(&sample->requests_per_s) &&
         reader->GetDouble(&sample->failovers_per_s) &&
         reader->GetDouble(&sample->cache_hit_rate) &&
         reader->GetDouble(&sample->p95_wall_ms) &&
         reader->GetU64(&sample->queue_depth_max) &&
         reader->GetDouble(&sample->queue_utilization) &&
         reader->GetU8(&sample->status) &&
         sample->status <= kMaxWireHealthStatus;
}

void PutNodeHealth(const NodeHealth& node, std::vector<uint8_t>* out) {
  PutU8(node.status, out);
  PutI64(node.completed, out);
  PutI64(node.failovers, out);
  PutI64(node.divergence_checks, out);
  PutI64(node.divergence_mismatches, out);
  PutI64(node.events_total, out);
  PutU32(static_cast<uint32_t>(node.series.size()), out);
  for (const WireHealthSample& sample : node.series) {
    PutHealthSample(sample, out);
  }
  PutU32(static_cast<uint32_t>(node.events.size()), out);
  for (const WireEvent& event : node.events) PutWireEvent(event, out);
}

bool GetNodeHealth(Reader* reader, const std::vector<uint8_t>& payload,
                   NodeHealth* node) {
  uint32_t num_samples;
  if (!reader->GetU8(&node->status) || node->status > kMaxWireHealthStatus ||
      !reader->GetI64(&node->completed) ||
      !reader->GetI64(&node->failovers) ||
      !reader->GetI64(&node->divergence_checks) ||
      !reader->GetI64(&node->divergence_mismatches) ||
      !reader->GetI64(&node->events_total) || !reader->GetU32(&num_samples)) {
    return false;
  }
  if (num_samples > payload.size() / kWireHealthSampleBytes) return false;
  node->series.clear();
  node->series.reserve(num_samples);
  for (uint32_t i = 0; i < num_samples; ++i) {
    WireHealthSample sample;
    if (!GetHealthSample(reader, &sample)) return false;
    node->series.push_back(sample);
  }
  uint32_t num_events;
  if (!reader->GetU32(&num_events)) return false;
  if (num_events > payload.size() / kMinWireEventBytes) return false;
  node->events.clear();
  node->events.reserve(num_events);
  for (uint32_t i = 0; i < num_events; ++i) {
    WireEvent event;
    if (!GetWireEvent(reader, &event)) return false;
    node->events.push_back(std::move(event));
  }
  return true;
}

// --- Profile-section helpers. Minimum bytes per variable-count entry,
// bounding hostile counts before a reserve: an attr/cond row is a u32 id +
// an empty string + five i64 counters; a class row is a fixed 48-byte
// block; a profile section is sample_period + two i64 counters + three
// empty vectors + an empty plan_dot.
constexpr size_t kMinWireAttrProfileBytes = 48;
constexpr size_t kMinWireCondProfileBytes = 48;
constexpr size_t kWireClassProfileBytes = 48;
constexpr size_t kMinNodeProfileBytes = 40;

void PutWireAttrProfile(const WireAttrProfile& row, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(row.attr), out);
  PutString(row.name, out);
  PutI64(row.launches, out);
  PutI64(row.work_units, out);
  PutI64(row.speculative_launches, out);
  PutI64(row.wasted_work, out);
  PutI64(row.useful_completions, out);
}

bool GetWireAttrProfile(Reader* reader, WireAttrProfile* row) {
  uint32_t attr;
  if (!reader->GetU32(&attr) || !reader->GetString(&row->name) ||
      !reader->GetI64(&row->launches) || !reader->GetI64(&row->work_units) ||
      !reader->GetI64(&row->speculative_launches) ||
      !reader->GetI64(&row->wasted_work) ||
      !reader->GetI64(&row->useful_completions)) {
    return false;
  }
  row->attr = static_cast<AttributeId>(attr);
  return true;
}

void PutWireCondProfile(const WireCondProfile& row, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(row.attr), out);
  PutString(row.name, out);
  PutI64(row.evals, out);
  PutI64(row.true_outcomes, out);
  PutI64(row.false_outcomes, out);
  PutI64(row.unknown_outcomes, out);
  PutI64(row.eager_disables, out);
}

bool GetWireCondProfile(Reader* reader, WireCondProfile* row) {
  uint32_t attr;
  if (!reader->GetU32(&attr) || !reader->GetString(&row->name) ||
      !reader->GetI64(&row->evals) || !reader->GetI64(&row->true_outcomes) ||
      !reader->GetI64(&row->false_outcomes) ||
      !reader->GetI64(&row->unknown_outcomes) ||
      !reader->GetI64(&row->eager_disables)) {
    return false;
  }
  row->attr = static_cast<AttributeId>(attr);
  return true;
}

void PutWireClassProfile(const WireClassProfile& row,
                         std::vector<uint8_t>* out) {
  PutU64(row.class_key, out);
  PutI64(row.requests, out);
  PutI64(row.work, out);
  PutI64(row.wasted_work, out);
  PutI64(row.cache_hits, out);
  PutI64(row.cache_misses, out);
}

bool GetWireClassProfile(Reader* reader, WireClassProfile* row) {
  return reader->GetU64(&row->class_key) && reader->GetI64(&row->requests) &&
         reader->GetI64(&row->work) && reader->GetI64(&row->wasted_work) &&
         reader->GetI64(&row->cache_hits) && reader->GetI64(&row->cache_misses);
}

void PutNodeProfile(const NodeProfile& node, std::vector<uint8_t>* out) {
  PutU64(node.sample_period, out);
  PutI64(node.profiled_requests, out);
  PutI64(node.total_requests, out);
  PutU32(static_cast<uint32_t>(node.attrs.size()), out);
  for (const WireAttrProfile& row : node.attrs) PutWireAttrProfile(row, out);
  PutU32(static_cast<uint32_t>(node.conds.size()), out);
  for (const WireCondProfile& row : node.conds) PutWireCondProfile(row, out);
  PutU32(static_cast<uint32_t>(node.classes.size()), out);
  for (const WireClassProfile& row : node.classes) {
    PutWireClassProfile(row, out);
  }
  PutString(node.plan_dot, out);
}

bool GetNodeProfile(Reader* reader, const std::vector<uint8_t>& payload,
                    NodeProfile* node) {
  uint32_t num_attrs;
  if (!reader->GetU64(&node->sample_period) ||
      !reader->GetI64(&node->profiled_requests) ||
      !reader->GetI64(&node->total_requests) || !reader->GetU32(&num_attrs)) {
    return false;
  }
  if (num_attrs > payload.size() / kMinWireAttrProfileBytes) return false;
  node->attrs.clear();
  node->attrs.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    WireAttrProfile row;
    if (!GetWireAttrProfile(reader, &row)) return false;
    node->attrs.push_back(std::move(row));
  }
  uint32_t num_conds;
  if (!reader->GetU32(&num_conds)) return false;
  if (num_conds > payload.size() / kMinWireCondProfileBytes) return false;
  node->conds.clear();
  node->conds.reserve(num_conds);
  for (uint32_t i = 0; i < num_conds; ++i) {
    WireCondProfile row;
    if (!GetWireCondProfile(reader, &row)) return false;
    node->conds.push_back(std::move(row));
  }
  uint32_t num_classes;
  if (!reader->GetU32(&num_classes)) return false;
  if (num_classes > payload.size() / kWireClassProfileBytes) return false;
  node->classes.clear();
  node->classes.reserve(num_classes);
  for (uint32_t i = 0; i < num_classes; ++i) {
    WireClassProfile row;
    if (!GetWireClassProfile(reader, &row)) return false;
    node->classes.push_back(row);
  }
  return reader->GetString(&node->plan_dot);
}

// A STATS node entry: identity, then the sections `sections` names, in
// bit order. The smallest entry is an empty node_id + the is_router byte
// + the requested sections at their minimum sizes.
size_t MinNodeStatsBytes(uint8_t sections) {
  return 5 + ((sections & kStatsMetrics) ? 4 : 0) +
         ((sections & kStatsHealth) ? kMinNodeHealthBytes : 0) +
         ((sections & kStatsProfile) ? kMinNodeProfileBytes : 0);
}

void PutNodeStats(const NodeStats& node, uint8_t sections,
                  std::vector<uint8_t>* out) {
  PutString(node.node_id, out);
  PutU8(node.is_router, out);
  if (sections & kStatsMetrics) PutString(node.metrics, out);
  if (sections & kStatsHealth) PutNodeHealth(node.health, out);
  if (sections & kStatsProfile) PutNodeProfile(node.profile, out);
}

bool GetNodeStats(Reader* reader, const std::vector<uint8_t>& payload,
                  uint8_t sections, NodeStats* node) {
  return reader->GetString(&node->node_id) &&
         reader->GetU8(&node->is_router) && node->is_router <= 1 &&
         (!(sections & kStatsMetrics) || reader->GetString(&node->metrics)) &&
         (!(sections & kStatsHealth) ||
          GetNodeHealth(reader, payload, &node->health)) &&
         (!(sections & kStatsProfile) ||
          GetNodeProfile(reader, payload, &node->profile));
}

bool GetIngressStats(Reader* reader, runtime::IngressStats* s) {
  return reader->GetI64(&s->connections_opened) &&
         reader->GetI64(&s->connections_closed) &&
         reader->GetI64(&s->requests_accepted) &&
         reader->GetI64(&s->requests_rejected_busy) &&
         reader->GetI64(&s->requests_rejected_shutdown) &&
         reader->GetI64(&s->decode_errors) &&
         reader->GetI64(&s->protocol_errors) &&
         reader->GetI64(&s->info_requests) && reader->GetI64(&s->bytes_in) &&
         reader->GetI64(&s->bytes_out) &&
         reader->GetI64(&s->outbox_inflight_hwm) &&
         reader->GetI64(&s->outbox_bytes_written) &&
         reader->GetI64(&s->outbox_write_stalls);
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
  const size_t frame = BeginFrame(MsgType::kSubmit, out);
  PutU64(msg.request_id, out);
  PutU64(msg.seed, out);
  uint32_t flags = 0;
  if (msg.blocking) flags |= kFlagBlocking;
  if (msg.want_snapshot) flags |= kFlagWantSnapshot;
  if (msg.has_trace) flags |= kFlagHasTrace;
  PutU32(flags, out);
  PutString(msg.strategy, out);
  PutU32(static_cast<uint32_t>(msg.sources.size()), out);
  for (const auto& [attr, value] : msg.sources) {
    PutU32(static_cast<uint32_t>(attr), out);
    PutValue(value, out);
  }
  if (msg.has_trace) {
    PutU64(msg.trace_id, out);
    PutU8(0, out);  // trace_flags, reserved; receivers reject nonzero
  }
  SealFrame(frame, out);
}

bool DecodeSubmit(const std::vector<uint8_t>& payload, SubmitRequest* out) {
  Reader reader(payload);
  uint32_t flags, num_sources;
  if (!reader.GetU64(&out->request_id) || !reader.GetU64(&out->seed) ||
      !reader.GetU32(&flags) || !reader.GetString(&out->strategy) ||
      !reader.GetU32(&num_sources)) {
    return false;
  }
  if ((flags & ~kKnownFlags) != 0) return false;
  out->blocking = (flags & kFlagBlocking) != 0;
  out->want_snapshot = (flags & kFlagWantSnapshot) != 0;
  out->has_trace = (flags & kFlagHasTrace) != 0;
  out->trace_id = 0;
  // An attacker-controlled count must not drive a huge reserve; each
  // binding is at least 5 payload bytes, so the payload length bounds it.
  if (num_sources > payload.size() / 5) return false;
  out->sources.clear();
  out->sources.reserve(num_sources);
  for (uint32_t i = 0; i < num_sources; ++i) {
    uint32_t attr;
    Value value;
    if (!reader.GetU32(&attr) || !reader.GetValue(&value)) return false;
    out->sources.emplace_back(static_cast<AttributeId>(attr),
                              std::move(value));
  }
  if (out->has_trace) {
    uint8_t trace_flags;
    if (!reader.GetU64(&out->trace_id) || !reader.GetU8(&trace_flags) ||
        trace_flags != 0) {
      return false;
    }
  }
  return reader.Done();
}

void EncodeBatchSubmit(const BatchSubmitRequest& msg,
                       std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(MsgType::kBatchSubmit, out);
  // request_id_base leads the payload at offset 0 like every correlation
  // id, so PeekRequestId attributes even an undecodable batch.
  PutU64(msg.request_id_base, out);
  uint32_t flags = 0;
  if (msg.blocking) flags |= kFlagBlocking;
  if (msg.want_snapshot) flags |= kFlagWantSnapshot;
  PutU32(flags, out);
  PutString(msg.strategy, out);
  PutU32(static_cast<uint32_t>(msg.items.size()), out);
  for (const BatchItem& item : msg.items) {
    PutU64(item.seed, out);
    PutU32(static_cast<uint32_t>(item.sources.size()), out);
    for (const auto& [attr, value] : item.sources) {
      PutU32(static_cast<uint32_t>(attr), out);
      PutValue(value, out);
    }
  }
  SealFrame(frame, out);
}

bool DecodeBatchSubmit(const std::vector<uint8_t>& payload,
                       BatchSubmitRequest* out) {
  Reader reader(payload);
  uint32_t flags, num_items;
  if (!reader.GetU64(&out->request_id_base) || !reader.GetU32(&flags) ||
      !reader.GetString(&out->strategy) || !reader.GetU32(&num_items)) {
    return false;
  }
  // Batches share the singleton flag word but carry no trace-context
  // extension, so kFlagHasTrace is out of range here, not just unknown.
  if ((flags & ~(kFlagBlocking | kFlagWantSnapshot)) != 0) return false;
  out->blocking = (flags & kFlagBlocking) != 0;
  out->want_snapshot = (flags & kFlagWantSnapshot) != 0;
  // The ticket range base + count must not wrap uint64 (responses carry
  // base + i), and an item is at least 12 payload bytes (seed + empty
  // source count), bounding a hostile count before the reserve.
  if (num_items > payload.size() / 12) return false;
  if (out->request_id_base > UINT64_MAX - num_items) return false;
  out->items.clear();
  out->items.reserve(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    BatchItem item;
    uint32_t num_sources;
    if (!reader.GetU64(&item.seed) || !reader.GetU32(&num_sources)) {
      return false;
    }
    if (num_sources > payload.size() / 5) return false;
    item.sources.reserve(num_sources);
    for (uint32_t j = 0; j < num_sources; ++j) {
      uint32_t attr;
      Value value;
      if (!reader.GetU32(&attr) || !reader.GetValue(&value)) return false;
      item.sources.emplace_back(static_cast<AttributeId>(attr),
                                std::move(value));
    }
    out->items.push_back(std::move(item));
  }
  return reader.Done();
}

void EncodeSubmitResult(const SubmitResult& msg, std::vector<uint8_t>* out) {
  // Reserve the whole frame once: the header, 52 fixed body bytes, the
  // strategy string, the snapshot flag and entries, then the trailer
  // (trace id, spans, count). Growth stays at least geometric, so a caller
  // appending many frames to one buffer stays linear.
  size_t bytes = kFrameHeaderBytes + 52 + 4 + msg.strategy.size() + 1 + 8 +
                 kWireSpanBytes * std::min<size_t>(msg.spans.size(), 255) +
                 1;
  if (msg.has_snapshot) {
    bytes += 4;
    for (const SnapshotEntry& entry : msg.snapshot) {
      bytes += 5 + ValueWireBytes(entry.value);
    }
  }
  const size_t need = out->size() + bytes;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  const size_t frame = BeginFrame(MsgType::kSubmitResult, out);
  PutU64(msg.request_id, out);
  PutU32(static_cast<uint32_t>(msg.shard), out);
  PutI64(msg.work, out);
  PutI64(msg.wasted_work, out);
  PutDouble(msg.response_time, out);
  PutU32(static_cast<uint32_t>(msg.queries_launched), out);
  PutU32(static_cast<uint32_t>(msg.speculative_launches), out);
  PutU64(msg.fingerprint, out);
  PutString(msg.strategy, out);
  PutU8(msg.has_snapshot ? 1 : 0, out);
  if (msg.has_snapshot) {
    PutU32(static_cast<uint32_t>(msg.snapshot.size()), out);
    for (const SnapshotEntry& entry : msg.snapshot) {
      PutU32(static_cast<uint32_t>(entry.attr), out);
      PutU8(static_cast<uint8_t>(entry.state), out);
      PutValue(entry.value, out);
    }
  }
  // v4 timing trailer, always present, count-terminated so a relaying
  // router can append spans in place (AppendResultSpan). The count byte
  // caps spans at 255 — far above the 7-kind taxonomy times any sane
  // router depth; excess spans are dropped rather than corrupting framing.
  PutU64(msg.trace_id, out);
  const size_t num_spans = std::min<size_t>(msg.spans.size(), 255);
  for (size_t i = 0; i < num_spans; ++i) {
    PutU8(msg.spans[i].kind, out);
    PutU64(msg.spans[i].start_ns, out);
    PutU64(msg.spans[i].duration_ns, out);
  }
  PutU8(static_cast<uint8_t>(num_spans), out);
  SealFrame(frame, out);
}

bool DecodeSubmitResult(const std::vector<uint8_t>& payload,
                        SubmitResult* out) {
  Reader reader(payload);
  uint32_t shard, queries, speculative;
  uint8_t has_snapshot;
  if (!reader.GetU64(&out->request_id) || !reader.GetU32(&shard) ||
      !reader.GetI64(&out->work) || !reader.GetI64(&out->wasted_work) ||
      !reader.GetDouble(&out->response_time) || !reader.GetU32(&queries) ||
      !reader.GetU32(&speculative) || !reader.GetU64(&out->fingerprint) ||
      !reader.GetString(&out->strategy) || !reader.GetU8(&has_snapshot)) {
    return false;
  }
  if (has_snapshot > 1) return false;
  out->shard = static_cast<int32_t>(shard);
  out->queries_launched = static_cast<int32_t>(queries);
  out->speculative_launches = static_cast<int32_t>(speculative);
  out->has_snapshot = has_snapshot == 1;
  out->snapshot.clear();
  if (out->has_snapshot) {
    uint32_t count;
    if (!reader.GetU32(&count) || count > payload.size() / 6) return false;
    out->snapshot.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      SnapshotEntry entry;
      if (!GetSnapshotEntry(&reader, &entry)) return false;
      out->snapshot.push_back(std::move(entry));
    }
  }
  // Timing trailer: trace_id, then exactly (remaining - 9) / 17 spans as
  // named by the terminating count byte — anything else is malformed.
  if (reader.remaining() < kMinTrailerBytes || !reader.GetU64(&out->trace_id)) {
    return false;
  }
  const uint8_t span_count = payload.back();
  if (reader.remaining() != kWireSpanBytes * span_count + 1) return false;
  if (out->trace_id == 0 && span_count != 0) return false;
  out->spans.clear();
  out->spans.reserve(span_count);
  for (uint8_t i = 0; i < span_count; ++i) {
    WireSpan span;
    if (!reader.GetU8(&span.kind) || span.kind < kMinWireSpanKind ||
        span.kind > kMaxWireSpanKind || !reader.GetU64(&span.start_ns) ||
        !reader.GetU64(&span.duration_ns)) {
      return false;
    }
    out->spans.push_back(span);
  }
  uint8_t trailing_count;
  if (!reader.GetU8(&trailing_count)) return false;
  return reader.Done();
}

void EncodeError(const ErrorReply& msg, std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(MsgType::kError, out);
  PutU64(msg.request_id, out);
  PutU16(static_cast<uint16_t>(msg.code), out);
  PutString(msg.message, out);
  SealFrame(frame, out);
}

bool DecodeError(const std::vector<uint8_t>& payload, ErrorReply* out) {
  Reader reader(payload);
  uint16_t code;
  if (!reader.GetU64(&out->request_id) || !reader.GetU16(&code) ||
      !reader.GetString(&out->message)) {
    return false;
  }
  if (code == 0 ||
      code > static_cast<uint16_t>(WireError::kBackendUnavailable)) {
    return false;
  }
  out->code = static_cast<WireError>(code);
  return reader.Done();
}

void EncodeInfoRequest(std::vector<uint8_t>* out) {
  SealFrame(BeginFrame(MsgType::kInfoRequest, out), out);
}

void EncodeInfo(const ServerInfo& msg, std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(MsgType::kInfo, out);
  PutU32(static_cast<uint32_t>(msg.num_shards), out);
  PutString(msg.strategy, out);
  PutU8(msg.backend, out);
  PutU64(msg.queue_capacity_per_shard, out);
  PutI64(msg.completed, out);
  PutI64(msg.rejected, out);
  PutI64(msg.cache_hits, out);
  PutI64(msg.cache_misses, out);
  PutString(msg.node_id, out);
  PutU64(msg.fleet_epoch, out);
  PutIngressStats(msg.ingress, out);
  PutU8(msg.router.is_router, out);
  PutU32(static_cast<uint32_t>(msg.router.replicas), out);
  PutI64(msg.router.failovers, out);
  PutI64(msg.router.divergence_checks, out);
  PutI64(msg.router.divergence_mismatches, out);
  PutI64(msg.router.divergence_incomplete, out);
  PutU32(static_cast<uint32_t>(msg.router.backends.size()), out);
  for (const RouterBackendStats& backend : msg.router.backends) {
    PutString(backend.address, out);
    PutString(backend.node_id, out);
    PutU8(backend.connected, out);
    PutU32(static_cast<uint32_t>(backend.shards), out);
    PutU32(static_cast<uint32_t>(backend.slot), out);
    PutU32(static_cast<uint32_t>(backend.replica), out);
    PutI64(backend.forwarded, out);
    PutI64(backend.answered, out);
    PutI64(backend.unavailable, out);
    PutI64(backend.reconnects, out);
    PutI64(backend.failovers, out);
  }
  PutU8(msg.advisor.enabled, out);
  PutU64(msg.advisor.fingerprint, out);
  PutI64(msg.advisor.selections, out);
  PutI64(msg.advisor.explores, out);
  PutU32(static_cast<uint32_t>(msg.advisor.by_strategy.size()), out);
  for (const AdvisorStrategyCount& entry : msg.advisor.by_strategy) {
    PutString(entry.strategy, out);
    PutI64(entry.count, out);
  }
  SealFrame(frame, out);
}

bool DecodeInfo(const std::vector<uint8_t>& payload, ServerInfo* out) {
  Reader reader(payload);
  uint32_t shards;
  if (!reader.GetU32(&shards) || !reader.GetString(&out->strategy) ||
      !reader.GetU8(&out->backend) ||
      !reader.GetU64(&out->queue_capacity_per_shard) ||
      !reader.GetI64(&out->completed) || !reader.GetI64(&out->rejected) ||
      !reader.GetI64(&out->cache_hits) ||
      !reader.GetI64(&out->cache_misses) ||
      !reader.GetString(&out->node_id) ||
      !reader.GetU64(&out->fleet_epoch) ||
      !GetIngressStats(&reader, &out->ingress)) {
    return false;
  }
  out->num_shards = static_cast<int32_t>(shards);
  uint8_t is_router;
  uint32_t replicas;
  uint32_t num_backends;
  if (!reader.GetU8(&is_router) || is_router > 1 ||
      !reader.GetU32(&replicas) ||
      !reader.GetI64(&out->router.failovers) ||
      !reader.GetI64(&out->router.divergence_checks) ||
      !reader.GetI64(&out->router.divergence_mismatches) ||
      !reader.GetI64(&out->router.divergence_incomplete) ||
      !reader.GetU32(&num_backends)) {
    return false;
  }
  out->router.is_router = is_router;
  out->router.replicas = static_cast<int32_t>(replicas);
  // Each backend entry is at least 61 payload bytes (two empty strings:
  // 2×4 length headers + 1 connected + 3×4 shards/slot/replica + 5×8
  // counters), so the payload length bounds a hostile count before the
  // reserve.
  if (num_backends > payload.size() / 61) return false;
  out->router.backends.clear();
  out->router.backends.reserve(num_backends);
  for (uint32_t i = 0; i < num_backends; ++i) {
    RouterBackendStats backend;
    uint32_t backend_shards;
    uint32_t slot;
    uint32_t replica;
    if (!reader.GetString(&backend.address) ||
        !reader.GetString(&backend.node_id) ||
        !reader.GetU8(&backend.connected) || backend.connected > 1 ||
        !reader.GetU32(&backend_shards) || !reader.GetU32(&slot) ||
        !reader.GetU32(&replica) ||
        !reader.GetI64(&backend.forwarded) ||
        !reader.GetI64(&backend.answered) ||
        !reader.GetI64(&backend.unavailable) ||
        !reader.GetI64(&backend.reconnects) ||
        !reader.GetI64(&backend.failovers)) {
      return false;
    }
    backend.shards = static_cast<int32_t>(backend_shards);
    backend.slot = static_cast<int32_t>(slot);
    backend.replica = static_cast<int32_t>(replica);
    out->router.backends.push_back(std::move(backend));
  }
  uint32_t num_counts;
  if (!reader.GetU8(&out->advisor.enabled) || out->advisor.enabled > 1 ||
      !reader.GetU64(&out->advisor.fingerprint) ||
      !reader.GetI64(&out->advisor.selections) ||
      !reader.GetI64(&out->advisor.explores) || !reader.GetU32(&num_counts)) {
    return false;
  }
  // Each histogram row is at least 12 payload bytes (4-byte string header
  // + 8-byte count), bounding a hostile count before the reserve.
  if (num_counts > payload.size() / 12) return false;
  out->advisor.by_strategy.clear();
  out->advisor.by_strategy.reserve(num_counts);
  for (uint32_t i = 0; i < num_counts; ++i) {
    AdvisorStrategyCount entry;
    if (!reader.GetString(&entry.strategy) || !reader.GetI64(&entry.count)) {
      return false;
    }
    out->advisor.by_strategy.push_back(std::move(entry));
  }
  return reader.Done();
}

uint64_t ReadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

void WriteLe64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint16_t ReadLe16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint64_t PeekRequestId(const std::vector<uint8_t>& payload) {
  return payload.size() >= 8 ? ReadLe64(payload.data()) : 0;
}

void EncodeRawFrame(uint8_t type, const std::vector<uint8_t>& payload,
                    std::vector<uint8_t>* out) {
  PutU8(kMagic0, out);
  PutU8(kMagic1, out);
  PutU8(kWireVersion, out);
  PutU8(type, out);
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

void EncodeGoodbye(std::vector<uint8_t>* out) {
  SealFrame(BeginFrame(MsgType::kGoodbye, out), out);
}

void EncodeGoodbyeAck(std::vector<uint8_t>* out) {
  SealFrame(BeginFrame(MsgType::kGoodbyeAck, out), out);
}

void EncodeStatsRequest(const StatsRequest& msg, std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(MsgType::kStatsRequest, out);
  PutU64(msg.request_id, out);
  PutU8(msg.sections, out);
  SealFrame(frame, out);
}

bool DecodeStatsRequest(const std::vector<uint8_t>& payload,
                        StatsRequest* out) {
  Reader reader(payload);
  return reader.GetU64(&out->request_id) && reader.GetU8(&out->sections) &&
         (out->sections & ~kStatsAllSections) == 0 && reader.Done();
}

void EncodeStats(const StatsInfo& msg, std::vector<uint8_t>* out) {
  const size_t frame = BeginFrame(MsgType::kStats, out);
  PutU64(msg.request_id, out);
  PutU8(msg.sections, out);
  PutNodeStats(msg.self, msg.sections, out);
  PutU32(static_cast<uint32_t>(msg.backends.size()), out);
  for (const NodeStats& backend : msg.backends) {
    PutNodeStats(backend, msg.sections, out);
  }
  SealFrame(frame, out);
}

bool DecodeStats(const std::vector<uint8_t>& payload, StatsInfo* out) {
  Reader reader(payload);
  uint32_t num_backends;
  out->self = NodeStats{};  // sections the mask leaves out stay default
  if (!reader.GetU64(&out->request_id) || !reader.GetU8(&out->sections) ||
      (out->sections & ~kStatsAllSections) != 0 ||
      !GetNodeStats(&reader, payload, out->sections, &out->self) ||
      !reader.GetU32(&num_backends) ||
      num_backends > payload.size() / MinNodeStatsBytes(out->sections)) {
    return false;
  }
  out->backends.clear();
  out->backends.reserve(num_backends);
  for (uint32_t i = 0; i < num_backends; ++i) {
    NodeStats backend;
    if (!GetNodeStats(&reader, payload, out->sections, &backend)) return false;
    out->backends.push_back(std::move(backend));
  }
  return reader.Done();
}

bool AppendResultSpan(std::vector<uint8_t>* payload, uint64_t trace_id,
                      uint8_t kind, uint64_t start_ns, uint64_t duration_ns) {
  if (payload->size() < kMinTrailerBytes) return false;
  const uint8_t count = payload->back();
  if (count == 255) return false;  // trailer saturated; drop the span
  const size_t trailer_bytes = kMinTrailerBytes + kWireSpanBytes * count;
  if (payload->size() < trailer_bytes) return false;
  // An untraced backend result (trace_id 0) adopts the appender's id, so
  // the span still belongs to an identified trace downstream.
  uint8_t* trace_id_at = payload->data() + payload->size() - trailer_bytes;
  if (ReadLe64(trace_id_at) == 0) WriteLe64(trace_id, trace_id_at);
  uint8_t span[kWireSpanBytes];
  span[0] = kind;
  WriteLe64(start_ns, span + 1);
  WriteLe64(duration_ns, span + 9);
  payload->insert(payload->end() - 1, span, span + kWireSpanBytes);
  payload->back() = static_cast<uint8_t>(count + 1);
  return true;
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
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
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
