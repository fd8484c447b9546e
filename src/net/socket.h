#ifndef DFLOW_NET_SOCKET_H_
#define DFLOW_NET_SOCKET_H_

#include <sys/types.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace dflow::net {

// Thin RAII wrappers over POSIX TCP sockets — just enough transport for the
// wire protocol: connect/accept, blocking full-buffer sends and chunk
// receives for clients and handshakes, and the non-blocking transfers the
// event loop runs on.
// Deliberately not a general networking layer; IPv4 only ("localhost" is
// accepted as an alias for 127.0.0.1).

// Outcome of one non-blocking transfer attempt (SendSomeV/RecvSome).
// kWouldBlock is the event loop's "arm epoll and come back" signal; kEof
// only occurs on the receive side (orderly peer close).
enum class IoStatus : uint8_t { kOk, kWouldBlock, kEof, kError };

struct IoResult {
  IoStatus status = IoStatus::kError;
  size_t bytes = 0;  // transferred this call; meaningful only for kOk
};

// A connected stream socket. Move-only; the destructor closes.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  // Connects to host:port with TCP_NODELAY set (the protocol is
  // request/response; Nagle would add latency for nothing). Returns an
  // invalid socket and fills *error on failure.
  static Socket ConnectTcp(const std::string& host, uint16_t port,
                           std::string* error);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Caps how long one Recv may block (SO_RCVTIMEO); a timed-out Recv
  // returns <0. 0 restores "block forever". The router's dialer bounds its
  // backend Info handshake with this, so a wedged backend cannot stall the
  // redial of every other backend for longer.
  void SetRecvTimeout(int timeout_ms);

  // Sends the whole buffer, retrying short writes and EINTR. Returns false
  // once the peer is gone (EPIPE/ECONNRESET/...).
  bool SendAll(const void* data, size_t size);

  // Receives up to `size` bytes: >0 bytes received, 0 orderly peer close,
  // <0 error.
  ssize_t Recv(void* data, size_t size);

  // Switches the fd to O_NONBLOCK (the event-loop mode; SendAll/Recv above
  // assume blocking sockets and must not be mixed in afterwards). Returns
  // false when the fcntl fails.
  bool SetNonBlocking();

  // One non-blocking gathered send attempt: a single sendmsg of the
  // `count` buffers, in order, transferring what the socket buffer takes
  // right now (possibly ending mid-buffer). EINTR is retried; a full
  // buffer is kWouldBlock (arm EPOLLOUT), a vanished peer is kError. Never
  // raises SIGPIPE.
  IoResult SendSomeV(const iovec* iov, size_t count);

  // One non-blocking receive attempt. EINTR is retried; an empty buffer is
  // kWouldBlock, an orderly peer close is kEof.
  IoResult RecvSome(void* data, size_t size);

  // Half-close helpers; ShutdownBoth also unblocks a Recv() parked in the
  // kernel.
  void ShutdownWrite();
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

// A listening TCP socket bound to 127.0.0.1.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  // Binds 127.0.0.1:port (0 asks the kernel for an ephemeral port — read
  // the result from port()) and listens. SO_REUSEADDR is set so restarts
  // do not trip over TIME_WAIT. Returns false and fills *error on failure.
  bool Listen(uint16_t port, std::string* error);

  bool valid() const { return fd_ >= 0; }
  // The actually bound port (resolves port 0 via getsockname).
  uint16_t port() const { return port_; }

  // Why an Accept() returned an invalid Socket. kTransient is resource
  // exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM): the listener is fine, the
  // caller should back off and retry instead of exiting — under a
  // connection flood, treating out-of-fds as fatal turns load into an
  // outage. kShutdown is the poisoned listener (or a genuinely fatal
  // accept error): the acceptor's exit signal.
  enum class AcceptStatus : uint8_t { kOk, kTransient, kShutdown };

  // Blocks for the next connection; the accepted socket has TCP_NODELAY
  // set. Returns an invalid Socket once Shutdown() was called (the
  // acceptor's exit signal) or on a fatal error; `status` (when non-null)
  // distinguishes transient resource exhaustion from the terminal cases.
  // EINTR and ECONNABORTED (peer gone before accept) are retried
  // internally and never surface.
  Socket Accept(AcceptStatus* status = nullptr);

  // Unblocks a pending Accept() and poisons the listener. Idempotent.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace dflow::net

#endif  // DFLOW_NET_SOCKET_H_
