#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "serve/registry.h"

namespace gm::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// One TCP connection. Owned by its worker's fd map; completions hold a
/// shared_ptr so a response arriving after close is dropped, never written
/// to a dead (possibly reused) fd.
struct Server::Connection {
  int fd = -1;
  std::size_t worker = 0;
  FrameDecoder decoder;

  struct OutMsg {
    std::vector<std::uint8_t> bytes;
    std::size_t off = 0;
    std::chrono::steady_clock::time_point arrival{};
    bool timed = false;    ///< arrival is a query arrival -> record wire latency
    bool is_error = false;
    bool counted = false;  ///< already in responses_ok/responses_error
  };

  // Outbox and flags shared with completion threads.
  std::mutex mu;
  std::deque<OutMsg> outbox;
  bool close_after_flush = false;      ///< protocol error: close once flushed
  std::atomic<bool> closed{false};     ///< fd closed; drop late responses
};

/// One event thread: its epoll, its eventfd, and the connections assigned
/// to it. `incoming` and `dirty` are the only cross-thread entry points.
struct Server::Worker {
  std::size_t index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;  ///< thread-local

  std::mutex mu;
  std::vector<int> incoming;                            ///< accepted fds
  std::vector<std::weak_ptr<Connection>> dirty;         ///< need a flush

  void wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof(one));
  }
};

Server::Server(ServerConfig cfg, serve::MemService& service)
    : cfg_(std::move(cfg)), service_(&service) {
  start();
}

Server::Server(ServerConfig cfg, serve::ReferenceRegistry& registry,
               std::string default_tenant)
    : cfg_(std::move(cfg)),
      registry_(&registry),
      default_tenant_(std::move(default_tenant)) {
  start();
}

Server::~Server() { shutdown(); }

void Server::start() {
  if (cfg_.workers == 0) cfg_.workers = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(cfg_.bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(listen_fd_, 128) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  acceptor_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (acceptor_event_fd_ < 0) throw_errno("eventfd");

  workers_.reserve(cfg_.workers);
  for (std::uint32_t i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (w->epoll_fd < 0) throw_errno("epoll_create1");
    w->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->event_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered is fine for the wake counter
    ev.data.fd = w->event_fd;
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &ev) < 0) {
      throw_errno("epoll_ctl eventfd");
    }
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->thread = std::thread([this, wp] { worker_loop(*wp); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void Server::acceptor_loop() {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = acceptor_event_fd_;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, acceptor_event_fd_, &ev);

  while (!stopping_.load() && !draining_.load()) {
    epoll_event events[8];
    const int n = ::epoll_wait(ep, events, 8, 500);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == listen_fd_) handle_accept();
      if (events[i].data.fd == acceptor_event_fd_) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(acceptor_event_fd_, &drain, sizeof(drain));
      }
    }
    drain_retired();  // release parked tenant keepalives off-dispatcher
  }
  ::close(ep);
}

void Server::retire(std::shared_ptr<serve::Tenant> tenant) {
  if (!tenant) return;
  std::lock_guard lock(retired_mu_);
  retired_.push_back(std::move(tenant));
}

void Server::drain_retired() {
  std::vector<std::shared_ptr<serve::Tenant>> victims;
  {
    std::lock_guard lock(retired_mu_);
    victims.swap(retired_);
  }
  // victims' references drop here, on the calling (acceptor or shutdown)
  // thread — a safe place for ~Tenant to join its dispatcher.
}

void Server::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the loop retries on next event
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::size_t active;
    {
      std::lock_guard lock(stats_mu_);
      active = stats_.active_connections;
    }
    if (draining_.load() || active >= cfg_.max_connections) {
      // Typed refusal instead of a silent close: one best-effort
      // non-blocking write of a kTooManyConnections / kShuttingDown error.
      ErrorFrame e;
      e.code = draining_.load() ? ErrorCode::kShuttingDown
                                : ErrorCode::kTooManyConnections;
      e.message = draining_.load()
                      ? "server is draining"
                      : "connection cap (" +
                            std::to_string(cfg_.max_connections) + ") reached";
      // Counted before the frame can reach the peer, which may read
      // stats() as soon as it sees the refusal; taken back if the frame
      // was not handed over whole.
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.refused_connections;
      }
      const auto bytes = encode_error(e);
      const ssize_t sent =
          ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(fd);
      if (sent != static_cast<ssize_t>(bytes.size())) {
        std::lock_guard lock(stats_mu_);
        --stats_.refused_connections;
      }
      continue;
    }

    {
      std::lock_guard lock(stats_mu_);
      ++stats_.accepted;
      ++stats_.active_connections;
    }
    Worker& w = *workers_[next_worker_.fetch_add(1) % workers_.size()];
    {
      std::lock_guard lock(w.mu);
      w.incoming.push_back(fd);
    }
    w.wake();
  }
}

void Server::worker_loop(Worker& w) {
  while (!stopping_.load()) {
    epoll_event events[32];
    const int n = ::epoll_wait(w.epoll_fd, events, 32, 500);
    if (stopping_.load()) break;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == w.event_fd) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(w.event_fd, &drain, sizeof(drain));
        // Register newly accepted connections.
        std::vector<int> incoming;
        std::vector<std::weak_ptr<Connection>> dirty;
        {
          std::lock_guard lock(w.mu);
          incoming.swap(w.incoming);
          dirty.swap(w.dirty);
        }
        for (const int fd : incoming) {
          auto conn = std::make_shared<Connection>();
          conn->fd = fd;
          conn->worker = w.index;
          conn->decoder = FrameDecoder(cfg_.max_frame_bytes);
          epoll_event ev{};
          // ET with both directions armed up front: we always read to
          // EAGAIN, and EPOLLOUT edges resume a flush that hit EAGAIN.
          ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
          ev.data.fd = fd;
          if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
            ::close(fd);
            std::lock_guard lock(stats_mu_);
            --stats_.active_connections;
            ++stats_.closed;
            continue;
          }
          w.conns.emplace(fd, std::move(conn));
        }
        // Flush connections with freshly enqueued responses.
        for (auto& weak : dirty) {
          if (auto conn = weak.lock(); conn && !conn->closed) {
            flush(w, conn);
          }
        }
        continue;
      }
      const auto it = w.conns.find(events[i].data.fd);
      if (it == w.conns.end()) continue;  // closed earlier this round
      const std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        close_connection(w, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) flush(w, conn);
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        handle_readable(w, conn);
      }
    }
  }
  // Teardown: close every connection this worker still owns.
  for (auto& [fd, conn] : w.conns) {
    {
      std::lock_guard lock(conn->mu);
      if (conn->closed) continue;
      conn->closed = true;
      discard_outbox(*conn);
    }
    ::close(fd);
    std::lock_guard lock(stats_mu_);
    --stats_.active_connections;
    ++stats_.closed;
  }
  w.conns.clear();
}

void Server::handle_readable(Worker& w,
                             const std::shared_ptr<Connection>& conn) {
  bool peer_closed = false;
  for (;;) {
    std::uint8_t buf[16384];
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      {
        std::lock_guard lock(stats_mu_);
        stats_.bytes_in += static_cast<std::uint64_t>(n);
      }
      conn->decoder.feed(buf, static_cast<std::size_t>(n));
      // Pump complete frames as they materialize so buffered memory stays
      // bounded by one frame, not one read burst.
      for (;;) {
        FrameDecoder::Frame frame;
        ErrorCode err;
        std::string err_msg;
        const auto st = conn->decoder.next(frame, err, err_msg);
        if (st == FrameDecoder::Status::kNeedMore) break;
        if (st == FrameDecoder::Status::kError) {
          {
            std::lock_guard lock(stats_mu_);
            ++stats_.malformed;
          }
          ErrorFrame e;
          e.code = err;
          e.message = std::move(err_msg);
          enqueue_response(conn, encode_error(e),
                           std::chrono::steady_clock::now(),
                           /*is_error=*/true, /*close_after=*/true);
          // The stream is unrecoverable; stop reading it.
          return;
        }
        {
          std::lock_guard lock(stats_mu_);
          ++stats_.frames_in;
        }
        process_frame(w, conn, std::move(frame));
        if (conn->closed) return;
      }
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // ECONNRESET and friends
    break;
  }
  if (peer_closed) close_connection(w, conn);
}

void Server::process_frame(Worker& w, const std::shared_ptr<Connection>& conn,
                           FrameDecoder::Frame&& frame) {
  const auto arrival = std::chrono::steady_clock::now();
  switch (frame.type) {
    case FrameType::kPing:
      enqueue_response(conn, encode_pong(), arrival, /*is_error=*/false,
                       /*close_after=*/false);
      return;
    case FrameType::kQuery: {
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.queries;
      }
      QueryFrame qf;
      std::string perr;
      if (!parse_query(frame.payload, qf, perr)) {
        std::lock_guard lock(stats_mu_);
        ++stats_.malformed;
        ErrorFrame e;
        e.code = ErrorCode::kMalformed;
        e.message = std::move(perr);
        // Framing was intact — only this payload is bad — but a client
        // producing it is buggy; close after the typed answer.
        enqueue_response(conn, encode_error(e), arrival, true, true);
        return;
      }
      handle_query(w, conn, std::move(qf), arrival);
      return;
    }
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kPong: {
      // Server-to-client types arriving at the server are a protocol error.
      std::lock_guard lock(stats_mu_);
      ++stats_.malformed;
      ErrorFrame e;
      e.code = ErrorCode::kBadType;
      e.message = std::string("unexpected client frame type ") +
                  to_string(frame.type);
      enqueue_response(conn, encode_error(e), arrival, true, true);
      return;
    }
  }
}

serve::MemService* Server::route(const std::string& tenant,
                                 std::shared_ptr<serve::Tenant>& keepalive,
                                 ErrorCode& err, std::string& err_msg) {
  if (registry_ == nullptr) {
    if (!tenant.empty()) {
      err = ErrorCode::kUnknownTenant;
      err_msg = "tenant '" + tenant + "': this server serves one unnamed "
                "reference";
      return nullptr;
    }
    return service_;
  }
  std::string name = tenant.empty() ? default_tenant_ : tenant;
  if (name.empty()) {
    err = ErrorCode::kUnknownTenant;
    err_msg = "no tenant named in the request and the server has no default";
    return nullptr;
  }
  try {
    keepalive = registry_->acquire(name);
    return &keepalive->service();
  } catch (const std::exception& e) {
    err = ErrorCode::kUnknownTenant;
    err_msg = e.what();
    return nullptr;
  }
}

bool Server::quota_acquire(const std::string& tenant) {
  if (cfg_.tenant_quota == 0) return true;
  std::lock_guard lock(quota_mu_);
  std::size_t& used = tenant_inflight_[tenant];
  if (used >= cfg_.tenant_quota) return false;
  ++used;
  return true;
}

void Server::quota_release(const std::string& tenant) {
  if (cfg_.tenant_quota == 0) return;
  std::lock_guard lock(quota_mu_);
  const auto it = tenant_inflight_.find(tenant);
  if (it != tenant_inflight_.end() && it->second > 0) --it->second;
}

void Server::handle_query(Worker& w, const std::shared_ptr<Connection>& conn,
                          QueryFrame&& qf,
                          std::chrono::steady_clock::time_point arrival) {
  (void)w;
  const auto refuse = [&](ErrorCode code, std::string msg) {
    ErrorFrame e;
    e.code = code;
    e.id = qf.id;
    e.message = std::move(msg);
    enqueue_response(conn, encode_error(e), arrival, /*is_error=*/true,
                     /*close_after=*/false);
  };

  if (draining_.load()) {
    refuse(ErrorCode::kShuttingDown, "server is draining");
    return;
  }

  std::shared_ptr<serve::Tenant> keepalive;
  ErrorCode rerr = ErrorCode::kFailed;
  std::string rerr_msg;
  serve::MemService* svc = route(qf.tenant, keepalive, rerr, rerr_msg);
  if (svc == nullptr) {
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.unknown_tenant;
    }
    refuse(rerr, std::move(rerr_msg));
    return;
  }

  const std::string quota_key = qf.tenant.empty() ? default_tenant_ : qf.tenant;
  if (!quota_acquire(quota_key)) {
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.quota_exceeded;
    }
    refuse(ErrorCode::kQuotaExceeded,
           "tenant '" + quota_key + "' is at its in-flight quota of " +
               std::to_string(cfg_.tenant_quota));
    return;
  }

  // Load shedding tied to queue depth: answer OVERLOAD at the wire instead
  // of letting the queue's tail latency stall every connection.
  if (cfg_.shed_fraction <= 1.0) {
    const std::size_t cap = svc->config().queue_capacity;
    const auto shed_at = static_cast<std::size_t>(
        static_cast<double>(cap) * cfg_.shed_fraction);
    if (svc->queue_depth() >= std::max<std::size_t>(1, shed_at)) {
      quota_release(quota_key);
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.overloaded;
      }
      refuse(ErrorCode::kOverloaded,
             "queue depth at the shed threshold; retry later");
      return;
    }
  }

  serve::QueryRequest req;
  req.id = qf.id;
  // Lenient decode: non-ACGT bytes become masked invalid bases, exactly the
  // FASTA default policy — they match nothing and never crash the decoder.
  req.query = seq::Sequence::from_string_lenient(qf.query);
  req.deadline_seconds = static_cast<double>(qf.deadline_ms) / 1000.0;
  req.min_length = qf.min_length;

  inflight_.fetch_add(1);
  Server* self = this;
  const std::string rid = qf.id;
  svc->submit(
      std::move(req),
      [self, conn, keepalive, quota_key, rid,
       arrival](const serve::QueryResult& r) mutable {
        self->quota_release(quota_key);
        std::vector<std::uint8_t> bytes;
        bool is_error = true;
        switch (r.status) {
          case serve::QueryStatus::kOk: {
            if (result_payload_bytes(rid.size(), r.mems.size()) >
                kMaxPayloadBytes) {
              // Every peer rejects a frame this large and would drop the
              // connection; fail only this request instead.
              ErrorFrame e{ErrorCode::kResultTooLarge, rid,
                           std::to_string(r.mems.size()) +
                               " MEMs exceed the " +
                               std::to_string(kMaxPayloadBytes) +
                               "-byte frame bound; raise min_length"};
              bytes = encode_error(e);
              break;
            }
            ResultFrame rf;
            rf.id = rid;
            rf.warm = r.stats.index_cache_hit;
            const auto us = [](double s) {
              if (s <= 0.0) return std::uint32_t{0};
              const double v = s * 1e6;
              return v >= 4294967295.0 ? std::uint32_t{4294967295u}
                                       : static_cast<std::uint32_t>(v);
            };
            rf.queue_us = us(r.queue_seconds);
            rf.service_us = us(r.service_seconds);
            rf.mems = r.mems;
            bytes = encode_result(rf);
            is_error = false;
            break;
          }
          case serve::QueryStatus::kInvalid: {
            ErrorFrame e{ErrorCode::kInvalidQuery, rid, r.error};
            bytes = encode_error(e);
            break;
          }
          case serve::QueryStatus::kExpired: {
            ErrorFrame e{ErrorCode::kExpired, rid, r.error};
            bytes = encode_error(e);
            break;
          }
          case serve::QueryStatus::kRejected: {
            const bool down = r.error.find("shut down") != std::string::npos;
            ErrorFrame e{down ? ErrorCode::kShuttingDown
                              : ErrorCode::kOverloaded,
                         rid, r.error};
            bytes = encode_error(e);
            if (!down) {
              std::lock_guard lock(self->stats_mu_);
              ++self->stats_.overloaded;
            }
            break;
          }
          case serve::QueryStatus::kFailed: {
            ErrorFrame e{ErrorCode::kFailed, rid, r.error};
            bytes = encode_error(e);
            break;
          }
        }
        self->enqueue_response(conn, std::move(bytes), arrival,
                               is_error, /*close_after=*/false);
        // This callback runs (and is later destroyed) on the tenant's own
        // dispatcher thread. If its keepalive were the last Tenant
        // reference, dropping it here would make ~MemService join the very
        // thread we are on — so park it for the acceptor thread instead.
        self->retire(std::move(keepalive));
        self->inflight_.fetch_sub(1);
        self->drain_cv_.notify_all();
      });
}

void Server::enqueue_response(const std::shared_ptr<Connection>& conn,
                              std::vector<std::uint8_t> bytes,
                              std::chrono::steady_clock::time_point arrival,
                              bool is_error, bool close_after) {
  if (stopping_.load()) return;  // workers gone; nothing can flush this
  {
    std::lock_guard lock(conn->mu);
    if (conn->closed) return;  // peer went away while the request ran
    Connection::OutMsg msg;
    msg.bytes = std::move(bytes);
    msg.arrival = arrival;
    msg.timed = true;
    msg.is_error = is_error;
    conn->outbox.push_back(std::move(msg));
    pending_out_.fetch_add(1);
    if (close_after) conn->close_after_flush = true;
  }
  Worker& w = *workers_[conn->worker];
  {
    std::lock_guard lock(w.mu);
    w.dirty.push_back(conn);
  }
  w.wake();
}

void Server::flush(Worker& w, const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  {
    std::lock_guard lock(conn->mu);
    if (conn->closed) return;
    while (!conn->outbox.empty()) {
      Connection::OutMsg& msg = conn->outbox.front();
      // Account the response before send() can hand its last bytes to the
      // peer: a client that has read its reply must find it in stats().
      // A frame the connection dies under is taken back by discard_outbox.
      if (!msg.counted) {
        count_response(msg.is_error, +1);
        msg.counted = true;
      }
      while (msg.off < msg.bytes.size()) {
        const ssize_t n =
            ::send(conn->fd, msg.bytes.data() + msg.off,
                   msg.bytes.size() - msg.off, MSG_NOSIGNAL);
        if (n > 0) {
          msg.off += static_cast<std::size_t>(n);
          std::lock_guard slock(stats_mu_);
          stats_.bytes_out += static_cast<std::uint64_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          return;  // kernel buffer full; EPOLLOUT edge resumes this flush
        }
        if (n < 0 && errno == EINTR) continue;
        close_now = true;  // EPIPE/ECONNRESET: peer is gone
        break;
      }
      if (close_now) break;
      if (msg.timed && obs::enabled()) {
        obs::Registry::global()
            .metrics()
            .distribution("serve.net.wire_seconds",
                          "request arrival -> response handed to the kernel")
            .observe(seconds_since(msg.arrival));
      }
      conn->outbox.pop_front();
      pending_out_.fetch_sub(1);
    }
    if (!close_now && conn->close_after_flush && conn->outbox.empty()) {
      close_now = true;
    }
  }
  if (close_now) close_connection(w, conn);
  if (obs::enabled()) publish_stats();
  drain_cv_.notify_all();  // shutdown may be waiting on an empty outbox
}

void Server::close_connection(Worker& w,
                              const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    discard_outbox(*conn);
  }
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  w.conns.erase(conn->fd);
  std::lock_guard lock(stats_mu_);
  --stats_.active_connections;
  ++stats_.closed;
}

void Server::count_response(bool is_error, int delta) {
  std::lock_guard lock(stats_mu_);
  (is_error ? stats_.responses_error : stats_.responses_ok) += delta;
}

void Server::discard_outbox(Connection& conn) {
  // Unflushed responses die with the connection: none reached the peer
  // whole, so take back the ones already counted, and keep the drain
  // accounting honest so shutdown() never waits on them.
  for (const Connection::OutMsg& msg : conn.outbox) {
    if (msg.counted) count_response(msg.is_error, -1);
  }
  pending_out_.fetch_sub(conn.outbox.size());
  conn.outbox.clear();
}

void Server::shutdown() {
  std::lock_guard shutdown_lock(shutdown_mu_);
  if (joined_) return;
  draining_.store(true);
  // Wake the acceptor so it observes draining_ and exits; its loop also
  // refuses late racers with a typed kShuttingDown frame.
  if (acceptor_event_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(acceptor_event_fd_, &one, sizeof(one));
  }

  // Drain phase 1: in-flight requests complete (their responses enqueue).
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait_for(
        lock, std::chrono::duration<double>(cfg_.drain_timeout_seconds),
        [&] { return inflight_.load() == 0; });
  }
  // Drain phase 2: outboxes flush to the kernel (workers still running).
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait_for(
        lock, std::chrono::duration<double>(cfg_.drain_timeout_seconds),
        [&] { return pending_out_.load() == 0; });
  }

  stopping_.store(true);
  for (auto& w : workers_) w->wake();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
    if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    if (w->event_fd >= 0) ::close(w->event_fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (acceptor_event_fd_ >= 0) {
    ::close(acceptor_event_fd_);
    acceptor_event_fd_ = -1;
  }
  joined_ = true;
  // The acceptor is gone; release any tenant keepalives parked by late
  // completions here on the shutdown caller's thread.
  drain_retired();
  publish_stats();
}

NetStats Server::stats() const {
  std::lock_guard lock(stats_mu_);
  NetStats out = stats_;
  out.inflight = inflight_.load();
  return out;
}

void Server::publish_stats() const {
  if (!obs::enabled()) return;
  const NetStats s = stats();
  obs::Metrics& m = obs::Registry::global().metrics();
  const auto set = [&m](const std::string& name, std::uint64_t v,
                        const std::string& help = {}) {
    m.gauge(name, help).set(static_cast<double>(v));
  };
  set("serve.net.accepted", s.accepted, "connections accepted");
  set("serve.net.refused_connections", s.refused_connections,
      "accepts refused over the connection cap");
  set("serve.net.closed", s.closed);
  set("serve.net.active_connections", s.active_connections);
  set("serve.net.frames_in", s.frames_in);
  set("serve.net.queries", s.queries);
  set("serve.net.responses_ok", s.responses_ok,
      "kResult frames written (goodput)");
  set("serve.net.responses_error", s.responses_error);
  set("serve.net.malformed", s.malformed,
      "protocol errors answered typed + closed");
  set("serve.net.overloaded", s.overloaded,
      "queries shed at the wire or rejected by the queue");
  set("serve.net.quota_exceeded", s.quota_exceeded);
  set("serve.net.unknown_tenant", s.unknown_tenant);
  set("serve.net.bytes_in", s.bytes_in);
  set("serve.net.bytes_out", s.bytes_out);
  set("serve.net.inflight", s.inflight);
}

}  // namespace gm::net
