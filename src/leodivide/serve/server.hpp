#pragma once
// Blocking-socket server loop: one acceptor thread plus a fixed worker
// pool (sized via runtime::worker_count_from_env / --workers) pulling
// accepted connections off a queue. Each worker runs a session: recv →
// FrameDecoder → ServiceState::handle → send reply. No event loop, no
// external dependencies — plain POSIX sockets on loopback, the service's
// deployment target (the heavy lifting is in the engine, not the I/O).
//
// stop() is teardown-safe against blocked I/O: it closes the listening
// socket (unblocking accept), half-closes every active session socket via
// shutdown() (unblocking recv), wakes the queue, and joins every thread.
// A session still sending after kStopGrace has a client that is not reading
// (its worker blocks in send() once the socket buffers fill); stop() then
// shuts that socket's write side too, which fails the send.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <condition_variable>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "leodivide/serve/session.hpp"

namespace leodivide::serve {

/// How long stop() lets active sessions finish the replies they are sending
/// (the shutdown request's own ack among them) before it cuts them off.
/// A reply is a few hundred bytes, so a reading client takes microseconds.
inline constexpr std::chrono::milliseconds kStopGrace{1000};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read the bound port via port())
  std::size_t workers = 2;
  int backlog = 64;
};

class Server {
 public:
  /// Borrows `state`, which must outlive the server.
  Server(ServiceState& state, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers. Throws
  /// std::runtime_error on any socket failure.
  void start();

  /// Stops accepting, unblocks and joins every thread, closes every
  /// socket. Returns within about kStopGrace even when a client never
  /// reads its replies. Idempotent.
  void stop();

  /// The bound port (meaningful after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  void accept_loop();
  void worker_loop();
  void run_session(int fd);

  ServiceState& state_;
  ServerConfig config_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;  ///< signalled as active_ shrinks
  bool stopping_ = false;
  std::deque<int> pending_;     ///< accepted, not yet picked up
  std::set<int> active_;        ///< sockets inside run_session
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace leodivide::serve
