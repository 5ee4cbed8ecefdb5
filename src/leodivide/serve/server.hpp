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
  /// socket. Idempotent.
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
  bool stopping_ = false;
  std::deque<int> pending_;     ///< accepted, not yet picked up
  std::set<int> active_;        ///< sockets inside run_session
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace leodivide::serve
