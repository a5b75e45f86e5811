// BatchServer: a single-threaded nonblocking epoll server speaking the
// engine/wire.h protocol. Each connection streams framed MultiSeek
// requests; the server runs every batch through Db::MultiSeek on the
// shared Db and streams framed Results responses back, in order. A batch
// that hits a read error (a corrupt or unreadable data block) gets an
// Error frame instead, and the connection stays open.
//
// The event loop lives in a library class (not just the example binary)
// so the smoke test can run it in-process: Start() binds an ephemeral
// port, a background thread calls Serve(), clients connect over
// loopback, Stop() shuts the loop down from any thread.
//
// One event-loop thread issues every MultiSeek; concurrency across
// connections comes from interleaving batches, not from parallel query
// execution. (The Db itself is fully concurrent — writers and background
// maintenance may run alongside the serving thread; each batch resolves
// against one pinned MVCC view.)

#ifndef PROTEUS_ENGINE_SERVER_H_
#define PROTEUS_ENGINE_SERVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "lsm/db.h"
#include "util/status.h"

namespace proteus {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port (see port())
  int backlog = 128;
};

class BatchServer {
 public:
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t batches_served = 0;
    uint64_t queries_served = 0;
    uint64_t protocol_errors = 0;  // bad frames / unknown ops (conn closed)
  };

  /// The caller keeps `db` alive until after Serve() returns.
  BatchServer(Db* db, ServerOptions options);
  ~BatchServer();
  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Binds, listens, and sets up epoll. After OK, port() is the bound
  /// port and Serve() may be called (typically from another thread).
  Status Start();

  /// The bound port (valid after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Runs the event loop until Stop(). Returns the first fatal error
  /// (epoll failure), or OK on a clean Stop.
  Status Serve();

  /// Signals Serve() to drain and return. Safe from any thread, and
  /// before/without Serve().
  void Stop();

  /// Event-loop counters; read after Serve() returns (or from the loop
  /// thread).
  const Stats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;   // bytes read, not yet framed
    std::string out;  // encoded responses awaiting write
    bool close_after_write = false;  // protocol error: flush error frame, close
  };

  void AcceptPending();
  /// Reads until EAGAIN, handles complete frames. False = close the conn.
  bool HandleReadable(Connection* conn);
  /// Runs one request frame against the Db, appends the response.
  bool HandleFrame(Connection* conn, const std::string& payload);
  /// Writes until EAGAIN or drained. False = close the conn.
  bool HandleWritable(Connection* conn);
  void UpdateEpoll(Connection* conn);
  void CloseConnection(int fd);
  void CloseAll();

  Db* db_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop() -> event loop wakeup
  uint16_t port_ = 0;
  std::map<int, Connection> connections_;
  Stats stats_;
};

}  // namespace proteus

#endif  // PROTEUS_ENGINE_SERVER_H_
