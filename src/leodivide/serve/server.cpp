#include "leodivide/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace leodivide::serve {

namespace {

[[nodiscard]] std::string errno_message() {
  return std::error_code(errno, std::generic_category()).message();
}

// The sockets API wants sockaddr*; the lint bans reinterpret_cast, so go
// through void* — well-defined here because sockaddr_in and sockaddr are
// layout-compatible for this use by POSIX contract.
[[nodiscard]] sockaddr* as_sockaddr(sockaddr_in& addr) noexcept {
  return static_cast<sockaddr*>(static_cast<void*>(&addr));
}

/// Sends the whole buffer, retrying on EINTR. Returns false on any other
/// send failure (peer gone — the session just ends).
[[nodiscard]] bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServiceState& state, ServerConfig config)
    : state_(state), config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::runtime_error("serve: server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed: " + errno_message());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bad host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, as_sockaddr(addr), sizeof(addr)) != 0) {
    const std::string msg = errno_message();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bind(" + config_.host + ":" +
                             std::to_string(config_.port) +
                             ") failed: " + msg);
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    const std::string msg = errno_message();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed: " + msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, as_sockaddr(bound), &len) != 0) {
    const std::string msg = errno_message();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: getsockname() failed: " + msg);
  }
  port_ = ntohs(bound.sin_port);

  started_ = true;
  stopping_ = false;
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Unblock every worker stuck in recv(): shut their read sides. The
    // write sides stay open, so a reply a worker is still sending (the
    // shutdown request's own ack among them) reaches its client. The fds
    // stay open (run_session owns the close), so no fd reuse race.
    for (int fd : active_) ::shutdown(fd, SHUT_RD);
  }
  // Unblock accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  {
    // A worker still sending after the grace has a client that is not
    // reading: shut the write sides too, which fails its send().
    std::unique_lock<std::mutex> lock(mutex_);
    if (!idle_cv_.wait_for(lock, kStopGrace,
                           [this] { return active_.empty(); })) {
      for (int fd : active_) ::shutdown(fd, SHUT_RDWR);
    }
  }

  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();

  ::close(listen_fd_);
  listen_fd_ = -1;
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  started_ = false;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket was shut down (stop()) or broke
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    pending_.push_back(fd);
    queue_cv_.notify_one();
  }
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      fd = pending_.front();
      pending_.pop_front();
      active_.insert(fd);
    }
    run_session(fd);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_.erase(fd);
    }
    idle_cv_.notify_all();
    ::close(fd);
  }
}

void Server::run_session(int fd) {
  protocol::FrameDecoder decoder;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // peer closed (or stop() half-closed us)
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    try {
      while (auto frame = decoder.next()) {
        const protocol::Frame reply = state_.handle(*frame);
        const std::string wire = encode_frame(reply.type, reply.payload);
        if (!send_all(fd, wire)) return;
      }
    } catch (const protocol::ProtocolError& e) {
      // The byte stream is broken; tell the client why (best effort) and
      // drop the session — there is no resynchronizing a framing error.
      const std::string wire = encode_frame(
          protocol::MsgType::kError,
          encode(protocol::ErrorReply{e.what()}));
      (void)send_all(fd, wire);
      return;
    }
  }
}

}  // namespace leodivide::serve
