#include "net/client.h"

#include <vector>

namespace dflow::net {

bool Client::Connect(const std::string& host, uint16_t port,
                     std::string* error) {
  socket_ = Socket::ConnectTcp(host, port, error);
  return socket_.valid();
}

bool Client::SendFrame(const std::vector<uint8_t>& frame) {
  if (!socket_.valid()) return false;
  if (!socket_.SendAll(frame.data(), frame.size())) return false;
  bytes_sent_ += static_cast<int64_t>(frame.size());
  return true;
}

bool Client::SendSubmit(const SubmitRequest& request) {
  std::vector<uint8_t> frame;
  EncodeSubmit(request, &frame);
  if (!SendFrame(frame)) return false;
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

TicketRange Client::SubmitBatch(std::span<const BatchItem> items,
                                const BatchOptions& options) {
  if (items.empty()) return {};
  BatchSubmitRequest request;
  request.request_id_base = next_request_id_;
  request.blocking = options.blocking;
  request.want_snapshot = options.want_snapshot;
  request.strategy = options.strategy;
  request.items.assign(items.begin(), items.end());
  std::vector<uint8_t> frame;
  EncodeBatchSubmit(request, &frame);
  if (!SendFrame(frame)) return {};
  const TicketRange range{next_request_id_,
                          static_cast<uint32_t>(items.size())};
  next_request_id_ += items.size();
  outstanding_.fetch_add(items.size(), std::memory_order_relaxed);
  return range;
}

std::optional<Completion> Client::NextCompletion() {
  while (true) {
    std::optional<ServerMessage> message = ReadMessage();
    if (!message.has_value()) return std::nullopt;
    Completion completion;
    switch (message->type) {
      case MsgType::kSubmitResult:
        completion.request_id = message->result.request_id;
        completion.type = MsgType::kSubmitResult;
        completion.result = std::move(message->result);
        return completion;
      case MsgType::kError:
        completion.request_id = message->error.request_id;
        completion.type = MsgType::kError;
        completion.error = std::move(message->error);
        return completion;
      default:
        continue;  // not a completion; skip (see header contract)
    }
  }
}

bool Client::DrainCompletions(
    const std::function<void(const Completion&)>& on_done,
    uint64_t remaining) {
  // remaining == 0 means "until everything outstanding settled";
  // ReadMessage decrements outstanding_ as completions arrive.
  const bool until_idle = remaining == 0;
  while (until_idle ? outstanding_ > 0 : remaining-- > 0) {
    std::optional<Completion> completion = NextCompletion();
    if (!completion.has_value()) return false;
    on_done(*completion);
  }
  return true;
}

bool Client::SendInfoRequest() {
  std::vector<uint8_t> frame;
  EncodeInfoRequest(&frame);
  return SendFrame(frame);
}

bool Client::SendGoodbye() {
  std::vector<uint8_t> frame;
  EncodeGoodbye(&frame);
  return SendFrame(frame);
}

std::optional<Frame> Client::ReadFrame() {
  uint8_t chunk[16 * 1024];
  while (true) {
    if (std::optional<Frame> frame = assembler_.Next()) return frame;
    if (assembler_.error() != WireError::kNone) {
      last_error_ = assembler_.error();
      return std::nullopt;
    }
    const ssize_t n = socket_.Recv(chunk, sizeof(chunk));
    if (n <= 0) return std::nullopt;  // EOF or transport error
    bytes_received_ += n;
    assembler_.Feed(chunk, static_cast<size_t>(n));
  }
}

void Client::SettleOne() {
  // Only the reader side decrements, so check-then-sub cannot underflow;
  // the guard absorbs unsolicited completions (e.g. a server error frame
  // answering a request this client never counted).
  if (outstanding_.load(std::memory_order_relaxed) > 0) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::optional<ServerMessage> Client::ReadMessage() {
  const std::optional<Frame> frame = ReadFrame();
  if (!frame.has_value()) return std::nullopt;
  ServerMessage message;
  switch (static_cast<MsgType>(frame->type)) {
    case MsgType::kSubmitResult:
      message.type = MsgType::kSubmitResult;
      if (!DecodeSubmitResult(frame->payload, &message.result)) break;
      SettleOne();
      return message;
    case MsgType::kError:
      message.type = MsgType::kError;
      if (!DecodeError(frame->payload, &message.error)) break;
      SettleOne();
      return message;
    case MsgType::kInfo:
      message.type = MsgType::kInfo;
      if (!DecodeInfo(frame->payload, &message.info)) break;
      return message;
    case MsgType::kStats:
      message.type = MsgType::kStats;
      if (!DecodeStats(frame->payload, &message.stats)) break;
      return message;
    case MsgType::kGoodbyeAck:
      message.type = MsgType::kGoodbyeAck;
      return message;
    default:
      break;
  }
  // A server frame we cannot decode: the stream can no longer be trusted
  // (responses would silently go missing).
  last_error_ = WireError::kMalformedFrame;
  return std::nullopt;
}

std::optional<ServerMessage> Client::Call(const SubmitRequest& request) {
  if (!SendSubmit(request)) return std::nullopt;
  return ReadMessage();
}

std::optional<ServerInfo> Client::Info() {
  if (!SendInfoRequest()) return std::nullopt;
  const std::optional<ServerMessage> message = ReadMessage();
  if (!message.has_value() || message->type != MsgType::kInfo) {
    return std::nullopt;
  }
  return message->info;
}

std::optional<StatsInfo> Client::Stats(uint8_t sections) {
  const StatsRequest request{next_request_id_++, sections};
  std::vector<uint8_t> frame;
  EncodeStatsRequest(request, &frame);
  if (!SendFrame(frame)) return std::nullopt;
  std::optional<ServerMessage> message = ReadMessage();
  if (!message.has_value() || message->type != MsgType::kStats ||
      message->stats.request_id != request.request_id) {
    return std::nullopt;
  }
  return std::move(message->stats);
}

bool Client::Goodbye() {
  if (!SendGoodbye()) return false;
  // Late results for requests this client abandoned may precede the ack;
  // skip them (documented: Goodbye discards unread responses).
  while (std::optional<ServerMessage> message = ReadMessage()) {
    if (message->type == MsgType::kGoodbyeAck) {
      Close();
      return true;
    }
  }
  Close();
  return false;
}

}  // namespace dflow::net
