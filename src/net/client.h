// Blocking loopback client for the gpumem wire protocol — the counterpart
// the tests, the self-check mode, and the open-loop load generator drive
// against net::Server. Deliberately simple: one socket, blocking sends,
// blocking frame reads under SO_RCVTIMEO, plus send_raw() so hostile-input
// tests can write truncated headers, garbage magic, or single bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace gm::net {

/// One server frame, already parsed. `type` discriminates which member is
/// meaningful (kResult -> result, kError -> error, kPong -> neither).
struct Reply {
  FrameType type = FrameType::kPong;
  ResultFrame result;
  ErrorFrame error;

  bool ok() const noexcept { return type == FrameType::kResult; }
};

class Client {
 public:
  /// Connects to 127.0.0.1:port. `timeout_seconds` bounds every blocking
  /// read (SO_RCVTIMEO); 0 waits forever. Throws std::runtime_error when
  /// the connection is refused.
  explicit Client(std::uint16_t port, double timeout_seconds = 10.0);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  /// Writes all of `data` (handles partial sends). False on EPIPE/reset.
  bool send_raw(const void* data, std::size_t n);
  bool send_frame(const std::vector<std::uint8_t>& bytes) {
    return send_raw(bytes.data(), bytes.size());
  }

  /// Blocking read of the next complete server frame. False on EOF, read
  /// timeout, or an unparseable stream (servers never produce one).
  bool read_reply(Reply& out);

  /// send_frame(encode_query(q)) + read_reply().
  bool query(const QueryFrame& q, Reply& out);

  /// Ping round-trip; true when a kPong comes back.
  bool ping();

  /// Half-close the write side (the server sees EOF after its responses).
  void shutdown_write();
  void close();
  bool connected() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// One request of a loopback self-check: the frame that goes on the wire
/// and what a direct in-process run of the same query returned.
struct LoopbackCase {
  QueryFrame frame;
  bool expected_ok = false;
  std::vector<mem::Mem> expected;
};

struct LoopbackCounts {
  std::uint64_t identical = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t transport_errors = 0;
};

/// `clients` concurrent Clients of 127.0.0.1:`port` split `cases`
/// round-robin; a reply counts as identical when its status and MEM list
/// equal the direct run's. Each mismatch and failed client is named on
/// `log`.
LoopbackCounts check_loopback(std::uint16_t port, std::size_t clients,
                              const std::vector<LoopbackCase>& cases,
                              std::ostream& log);

}  // namespace gm::net
