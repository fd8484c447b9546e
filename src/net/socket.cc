#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dflow::net {
namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr,
              std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) {
      *error = "not an IPv4 address: '" + host + "'";
    }
    return false;
  }
  return true;
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::ConnectTcp(const std::string& host, uint16_t port,
                          std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return Socket();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return Socket();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // EINTR does NOT abort a connect: POSIX keeps the attempt going
    // asynchronously, and a second connect() would fail with EALREADY. The
    // signal-safe completion is to wait for writability and read the
    // outcome from SO_ERROR — without this, any signal landing during the
    // three-way handshake (profilers, the serve binaries' signal handling)
    // surfaces as a spurious connection failure.
    bool connected = false;
    if (errno == EINTR) {
      pollfd pfd{fd, POLLOUT, 0};
      while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
          so_error == 0) {
        connected = true;
      } else {
        errno = so_error != 0 ? so_error : errno;
      }
    }
    if (!connected) {
      if (error != nullptr) *error = std::strerror(errno);
      ::close(fd);
      return Socket();
    }
  }
  SetNoDelay(fd);
  return Socket(fd);
}

void Socket::SetRecvTimeout(int timeout_ms) {
  if (fd_ < 0 || timeout_ms < 0) return;
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool Socket::SendAll(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a vanished peer must surface as an error return, not a
    // process-killing SIGPIPE on the shard worker or writer thread.
    const ssize_t n =
        ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

ssize_t Socket::Recv(void* data, size_t size) {
  while (true) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

bool Socket::SetNonBlocking() {
  if (fd_ < 0) return false;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

IoResult Socket::SendSomeV(const iovec* iov, size_t count) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = count;
  while (true) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n >= 0) return {IoStatus::kOk, static_cast<size_t>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult Socket::RecvSome(void* data, size_t size) {
  while (true) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n > 0) return {IoStatus::kOk, static_cast<size_t>(n)};
    if (n == 0) return {IoStatus::kEof, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::~ListenSocket() { Close(); }

bool ListenSocket::Listen(uint16_t port, std::string* error) {
  sockaddr_in addr;
  if (!FillAddr("127.0.0.1", port, &addr, error)) return false;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, SOMAXCONN) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    Close();
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    Close();
    return false;
  }
  port_ = ntohs(addr.sin_port);
  return true;
}

Socket ListenSocket::Accept(AcceptStatus* status) {
  while (fd_ >= 0) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // Signals and peers that gave up during the handshake are retried
      // here, invisibly to the caller.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        if (status != nullptr) *status = AcceptStatus::kTransient;
        return Socket();
      }
      // Shutdown() poisons the listener: accept fails with EINVAL, the
      // acceptor thread's signal to exit.
      if (status != nullptr) *status = AcceptStatus::kShutdown;
      return Socket();
    }
    SetNoDelay(fd);
    if (status != nullptr) *status = AcceptStatus::kOk;
    return Socket(fd);
  }
  if (status != nullptr) *status = AcceptStatus::kShutdown;
  return Socket();
}

void ListenSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace dflow::net
