// Non-blocking epoll network front end for MemService (docs/SERVING.md).
//
// Topology: one acceptor thread (listen socket, loopback by default) plus N
// worker event threads, each running an edge-triggered epoll loop over its
// share of the connections. Accepted sockets are assigned round-robin; all
// socket reads, frame decoding, admission control, and response writes for
// a connection happen on its worker thread, while completions arrive from
// the MemService dispatcher thread through a mutex-guarded per-connection
// outbox plus an eventfd wakeup — the loop never blocks on a request.
//
// Admission control happens at the wire, before a request can occupy a
// queue slot:
//   * connection cap        -> kTooManyConnections error frame, close
//   * draining (shutdown)   -> kShuttingDown error frame
//   * per-tenant quota      -> kQuotaExceeded error frame
//   * queue-depth load shed -> kOverloaded error frame (typed, not a stall
//                              and not a disconnect)
// plus MemService::submit's own validation (kInvalid -> kInvalidQuery) and
// backpressure (kRejected -> kOverloaded).
//
// Byte streams are framed by net::FrameDecoder, so partial reads and
// single-byte writes never block the loop; a malformed stream gets a typed
// error frame and a close (docs/SERVING.md#the-wire-protocol).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "serve/service.h"

namespace gm::serve {
class ReferenceRegistry;
class Tenant;
}  // namespace gm::serve

namespace gm::net {

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()).
  std::uint16_t port = 0;
  /// Bind 0.0.0.0 instead of 127.0.0.1. The test rigs and benches all run
  /// on loopback; opening the server to the network is an explicit choice.
  bool bind_any = false;
  /// Worker event threads (>= 1). Connections are assigned round-robin.
  std::uint32_t workers = 2;
  /// Connection cap: accepts beyond this answer kTooManyConnections and
  /// close immediately.
  std::size_t max_connections = 256;
  /// Per-tenant in-flight request quota; 0 = unlimited. In single-service
  /// mode the one implicit tenant ("") gets the whole quota.
  std::size_t tenant_quota = 0;
  /// Load shedding tied to queue depth: a query arriving while the target
  /// service's queue holds >= shed_fraction * queue_capacity requests is
  /// answered kOverloaded instead of being submitted. 1.0 still sheds
  /// (typed) at exactly-full; values > 1 disable shedding entirely.
  double shed_fraction = 0.9;
  /// Per-frame payload bound; larger length fields are a protocol error.
  std::uint32_t max_frame_bytes = kMaxPayloadBytes;
  /// Seconds shutdown() waits for in-flight requests, then for outboxes to
  /// flush, before tearing connections down anyway.
  double drain_timeout_seconds = 30.0;
};

/// Wire-level counters, readable any time via Server::stats(). Mirrored
/// into the obs metrics registry under "serve.net.*" when obs is enabled.
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t refused_connections = 0;  ///< typed refusals sent (cap/drain)
  std::uint64_t closed = 0;
  std::uint64_t active_connections = 0;   ///< at snapshot time
  std::uint64_t frames_in = 0;            ///< well-formed frames decoded
  std::uint64_t queries = 0;
  /// Reply frames, counted before send() can hand a frame's last bytes to
  /// the peer (a client that read its reply finds it counted) and uncounted
  /// if the connection dies before the frame was written whole.
  std::uint64_t responses_ok = 0;         ///< kResult frames written
  std::uint64_t responses_error = 0;      ///< kError frames written
  std::uint64_t malformed = 0;            ///< protocol errors (stream closed)
  std::uint64_t overloaded = 0;           ///< load-shed + queue-full
  std::uint64_t quota_exceeded = 0;
  std::uint64_t unknown_tenant = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t inflight = 0;             ///< at snapshot time
};

/// The epoll front end. Construct with a running MemService (single
/// reference) or a ReferenceRegistry (multi-tenant; the frame's tenant
/// field routes, falling back to `default_tenant`). The listening socket is
/// live when the constructor returns; destruction performs a graceful
/// shutdown.
class Server {
 public:
  Server(ServerConfig cfg, serve::MemService& service);
  Server(ServerConfig cfg, serve::ReferenceRegistry& registry,
         std::string default_tenant);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolved when cfg.port == 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown: stop accepting, answer new queries with
  /// kShuttingDown, wait (up to drain_timeout_seconds) for in-flight
  /// requests to complete and their responses to flush, then close every
  /// connection and join all threads. Idempotent.
  void shutdown();

  /// True once shutdown has begun (new work is being refused).
  bool draining() const noexcept { return draining_.load(); }

  NetStats stats() const;

 private:
  struct Connection;
  struct Worker;

  void start();
  void acceptor_loop();
  void worker_loop(Worker& w);
  void handle_accept();
  void handle_readable(Worker& w, const std::shared_ptr<Connection>& conn);
  void process_frame(Worker& w, const std::shared_ptr<Connection>& conn,
                     FrameDecoder::Frame&& frame);
  void handle_query(Worker& w, const std::shared_ptr<Connection>& conn,
                    QueryFrame&& qf,
                    std::chrono::steady_clock::time_point arrival);
  void enqueue_response(const std::shared_ptr<Connection>& conn,
                        std::vector<std::uint8_t> bytes,
                        std::chrono::steady_clock::time_point arrival,
                        bool is_error, bool close_after);
  void flush(Worker& w, const std::shared_ptr<Connection>& conn);
  void close_connection(Worker& w, const std::shared_ptr<Connection>& conn);
  /// Adds `delta` (+1 to count a reply, -1 to take it back) to
  /// responses_error or responses_ok.
  void count_response(bool is_error, int delta);
  /// Drops every unflushed reply of a closing connection (conn.mu held).
  void discard_outbox(Connection& conn);
  void publish_stats() const;

  /// Resolves the service a query routes to; null + error code on failure.
  serve::MemService* route(const std::string& tenant,
                           std::shared_ptr<serve::Tenant>& keepalive,
                           ErrorCode& err, std::string& err_msg);

  bool quota_acquire(const std::string& tenant);
  void quota_release(const std::string& tenant);

  /// Parks a completion's tenant keepalive for release on the acceptor
  /// thread. Dropping it on the completion (dispatcher) thread would be a
  /// self-join when it is the last reference: ~Tenant joins that very
  /// dispatcher.
  void retire(std::shared_ptr<serve::Tenant> tenant);
  void drain_retired();

  ServerConfig cfg_;
  serve::MemService* service_ = nullptr;          ///< single-service mode
  serve::ReferenceRegistry* registry_ = nullptr;  ///< registry mode
  std::string default_tenant_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  int acceptor_event_fd_ = -1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> next_worker_{0};

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  bool joined_ = false;
  std::mutex shutdown_mu_;

  std::mutex quota_mu_;
  std::unordered_map<std::string, std::size_t> tenant_inflight_;

  std::mutex retired_mu_;
  std::vector<std::shared_ptr<serve::Tenant>> retired_;

  mutable std::mutex stats_mu_;
  NetStats stats_;
  std::atomic<std::uint64_t> inflight_{0};
  /// Responses enqueued but not yet fully handed to the kernel (or dropped
  /// with a dead connection) — the shutdown flush-drain predicate.
  std::atomic<std::uint64_t> pending_out_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace gm::net
