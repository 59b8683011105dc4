#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

namespace gm::net {

Client::Client(std::uint16_t port, double timeout_seconds) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("net client: socket: ") +
                             std::strerror(errno));
  }
  if (timeout_seconds > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - std::floor(timeout_seconds)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("net client: connect: ") +
                             std::strerror(saved));
  }
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

bool Client::send_raw(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Client::read_reply(Reply& out) {
  for (;;) {
    FrameDecoder::Frame frame;
    ErrorCode err;
    std::string err_msg;
    const auto st = decoder_.next(frame, err, err_msg);
    if (st == FrameDecoder::Status::kError) return false;
    if (st == FrameDecoder::Status::kFrame) {
      out = Reply{};
      out.type = frame.type;
      std::string perr;
      switch (frame.type) {
        case FrameType::kResult:
          return parse_result(frame.payload, out.result, perr);
        case FrameType::kError:
          return parse_error(frame.payload, out.error, perr);
        case FrameType::kPong:
          return true;
        default:
          return false;  // client-direction frame from a server: broken
      }
    }
    std::uint8_t buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, timeout (EAGAIN under SO_RCVTIMEO), or reset
  }
}

bool Client::query(const QueryFrame& q, Reply& out) {
  if (!send_frame(encode_query(q))) return false;
  return read_reply(out);
}

bool Client::ping() {
  if (!send_frame(encode_ping())) return false;
  Reply r;
  return read_reply(r) && r.type == FrameType::kPong;
}

void Client::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LoopbackCounts check_loopback(std::uint16_t port, std::size_t clients,
                              const std::vector<LoopbackCase>& cases,
                              std::ostream& log) {
  std::atomic<std::uint64_t> identical{0}, mismatched{0}, transport_errors{0};
  std::mutex log_mu;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client(port, 30.0);
        for (std::size_t i = t; i < cases.size(); i += clients) {
          const LoopbackCase& c = cases[i];
          Reply reply;
          if (!client.query(c.frame, reply)) {
            ++transport_errors;
            continue;
          }
          if (reply.ok() == c.expected_ok &&
              (!reply.ok() || reply.result.mems == c.expected)) {
            ++identical;
            continue;
          }
          ++mismatched;
          std::lock_guard lock(log_mu);
          log << "[loopback] MISMATCH on " << c.frame.id << ": wire "
              << (reply.ok() ? "ok, " : "error '" + reply.error.message + "', ")
              << reply.result.mems.size() << " MEMs vs direct "
              << (c.expected_ok ? "ok, " : "not ok, ") << c.expected.size()
              << " MEMs\n";
        }
      } catch (const std::exception& e) {
        ++transport_errors;
        std::lock_guard lock(log_mu);
        log << "[loopback] client " << t << ": " << e.what() << '\n';
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return {identical.load(), mismatched.load(), transport_errors.load()};
}

}  // namespace gm::net
