#ifndef DFLOW_NET_CLIENT_H_
#define DFLOW_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "net/socket.h"
#include "net/wire_protocol.h"

namespace dflow::net {

// One message from the server, already decoded. `type` says which member
// is meaningful.
struct ServerMessage {
  MsgType type = MsgType::kError;
  SubmitResult result;  // when kSubmitResult
  ErrorReply error;     // when kError
  ServerInfo info;      // when kInfo
  StatsInfo stats;      // when kStats
};

// The contiguous correlation-id range a SubmitBatch claimed: ids
// first_id .. first_id + count - 1, item i answering under first_id + i.
// count == 0 means the send failed and nothing is owed.
struct TicketRange {
  uint64_t first_id = 0;
  uint32_t count = 0;

  bool ok() const { return count > 0; }
  bool Contains(uint64_t id) const {
    return id >= first_id && id - first_id < count;
  }
};

// Everything a batch shares across its items (the per-item variation —
// seed + sources — travels in the BatchItems themselves).
struct BatchOptions {
  bool blocking = true;      // admission mode for every item
  bool want_snapshot = false;
  std::string strategy;      // optional override, empty = server default
};

// One settled request from the pipelined stream: the answer to correlation
// id `request_id`, either a result (type == kSubmitResult) or a typed
// refusal (type == kError).
struct Completion {
  uint64_t request_id = 0;
  MsgType type = MsgType::kError;
  SubmitResult result;  // when kSubmitResult
  ErrorReply error;     // when kError
};

// Client side of the wire protocol: one TCP connection, blocking calls.
//
// Three usage styles:
//   - asynchronous batches (the throughput path): SubmitBatch() ships many
//     requests under one v7 BATCH_SUBMIT frame and returns the TicketRange
//     they answer under; completions are consumed with NextCompletion()
//     (poll style) or DrainCompletions() (callback style), in *completion*
//     order — correlate by request_id. outstanding() tracks what is still
//     owed across every SubmitBatch/SendSubmit on this connection.
//   - synchronous RPC: Call() / Info() / Stats() / Goodbye() pair one
//     request with one response — the simplest correct loop for a
//     closed-loop driver;
//   - pipelined singletons: issue several SendSubmit()s, then
//     ReadMessage() (or NextCompletion()) until every request_id is
//     answered.
//
// Threading: not generally thread-safe, with one supported overlap — a
// dedicated sender thread (Send*/SubmitBatch) concurrent with a dedicated
// reader thread (ReadMessage/NextCompletion), as the open-loop load driver
// does; send-side and receive-side state are disjoint (outstanding() is
// approximate under this overlap). ReadMessage returning nullopt means the
// connection is unusable — EOF, transport error, or an unrecoverable
// protocol error (see last_error()).
class Client {
 public:
  Client() = default;
  ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& host, uint16_t port, std::string* error);
  bool connected() const { return socket_.valid(); }

  // Bounds one blocking read (see Socket::SetRecvTimeout); 0 restores
  // "block forever". A timed-out read surfaces as nullopt.
  void SetRecvTimeout(int timeout_ms) { socket_.SetRecvTimeout(timeout_ms); }

  // --- Asynchronous batch surface (wire v7).

  // Ships `items` as one BATCH_SUBMIT frame under a contiguous
  // correlation-id range claimed from this connection's counter, and
  // returns that range (item i answers under first_id + i). Returns a
  // !ok() range on transport failure or an empty span; a returned ok()
  // range owes exactly count completions. The server admits items in
  // order and answers each with an ordinary SUBMIT_RESULT/ERROR frame,
  // byte-identical to the same request submitted alone — batching changes
  // how requests travel, never what they answer. That accounting holds
  // for refusals too: a batch-level refusal (e.g. a strategy override the
  // server does not run) comes back as count per-item error frames,
  // exactly as count singleton submits would have.
  TicketRange SubmitBatch(std::span<const BatchItem> items,
                          const BatchOptions& options = {});

  // Blocks for the next settled request — the answer to any outstanding
  // SubmitBatch item or SendSubmit. Non-completion frames (a stray Info/
  // Stats answer, a GoodbyeAck) are skipped, so do not interleave
  // unread RPC answers with a completion drain. nullopt means the stream
  // broke (EOF, transport error, or last_error()).
  std::optional<Completion> NextCompletion();

  // Callback-style drain: reads completions until `remaining` of them
  // settled (0 = until outstanding() hits zero), invoking `on_done` for
  // each. Returns false if the stream broke first.
  bool DrainCompletions(const std::function<void(const Completion&)>& on_done,
                        uint64_t remaining = 0);

  // Requests sent but not yet settled on this connection (batch items +
  // singleton submits).
  uint64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

  // Fire-and-record senders; false on transport failure.
  bool SendSubmit(const SubmitRequest& request);
  bool SendInfoRequest();
  bool SendGoodbye();

  // --- Raw-frame layer: frames sent and read wholesale, without decoding
  // message bodies. The typed calls above and below are built on these.

  // Sends one pre-encoded frame (or a run of concatenated frames) as-is;
  // false on transport failure.
  bool SendFrame(const std::vector<uint8_t>& frame);

  // Blocks for the next complete frame, without interpreting its payload.
  // nullopt means the connection is unusable (EOF, transport error, or
  // broken framing — see last_error()).
  std::optional<Frame> ReadFrame();

  // Blocks for the next server frame, decoded. kGoodbyeAck is surfaced as
  // a message with that type (empty members).
  std::optional<ServerMessage> ReadMessage();

  // Synchronous conveniences.
  std::optional<ServerMessage> Call(const SubmitRequest& request);
  std::optional<ServerInfo> Info();
  // One STATS scrape with the given kStats* sections: the metrics text
  // exposition, the health section (status, journal tail, rate series),
  // the plan profile (per-attribute work, per-condition selectivities,
  // class rollups). A router answers for itself plus every backend.
  std::optional<StatsInfo> Stats(uint8_t sections);
  // Graceful close: sends kGoodbye, waits for the ack (the server flushes
  // every outstanding response first — any still-pending results arrive
  // before the ack and are DISCARDED here, so call this only after reading
  // everything you care about), then closes. Returns false if the ack
  // never came.
  bool Goodbye();

  // Unblocks a ReadFrame/ReadMessage parked in the kernel from another
  // thread (shuts down both directions; the blocked read returns nullopt).
  // The fd stays valid until Close()/destruction, so a concurrent reader
  // never races a reused descriptor.
  void Shutdown() { socket_.ShutdownBoth(); }

  void Close() { socket_.Close(); }

  // Protocol-level failure of the *stream* (framing), if any.
  WireError last_error() const { return last_error_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  int64_t bytes_received() const { return bytes_received_; }

 private:
  // One completion settled: decrements outstanding_ (reader side only,
  // floored at zero).
  void SettleOne();

  Socket socket_;
  FrameAssembler assembler_;
  WireError last_error_ = WireError::kNone;
  int64_t bytes_sent_ = 0;
  int64_t bytes_received_ = 0;
  // Next correlation id SubmitBatch and Stats claim from. Starts high so
  // auto-assigned ids never collide with hand-chosen singleton ids in
  // mixed use (the id space is per-connection, so this is convention, not
  // correctness).
  uint64_t next_request_id_ = 1ull << 32;
  // Send-side increments, receive-side decrements. Atomic because the
  // supported dedicated-sender/dedicated-reader overlap makes the two
  // sides genuinely concurrent (relaxed suffices: the socket itself
  // orders a completion after its submit); exact in single-threaded use,
  // momentarily approximate mid-overlap but eventually zero.
  std::atomic<uint64_t> outstanding_{0};
};

}  // namespace dflow::net

#endif  // DFLOW_NET_CLIENT_H_
