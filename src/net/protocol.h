// Length-prefixed binary wire protocol for the MEM serving front end.
//
// Every frame is a fixed 12-byte header followed by `payload_len` payload
// bytes (docs/SERVING.md has the byte-level tables):
//
//   offset  size  field
//        0     4  magic "GMEM" (0x47 0x4D 0x45 0x4D on the wire)
//        4     1  version (kVersion)
//        5     1  frame type (FrameType)
//        6     2  flags, little-endian (0; reserved)
//        8     4  payload_len, little-endian (<= kMaxPayloadBytes)
//
// All multi-byte integers are little-endian. Strings are length-prefixed
// (u16 length + raw bytes, no terminator). The protocol is strictly
// request/response over one connection: the client sends kQuery/kPing
// frames, the server answers each — in per-connection submission order —
// with exactly one kResult/kError/kPong frame. A malformed frame (bad
// magic, unknown version, oversized length, truncated or overlong payload)
// is answered with a typed kError frame and a connection close; there is no
// way to resynchronize a corrupt byte stream.
//
// FrameDecoder is the incremental parser used by the server's non-blocking
// event loop: bytes arrive in arbitrary fragments (partial reads,
// single-byte slow-loris writes) and frames are surfaced only once
// complete, so the loop never blocks waiting for the rest of a frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/mem.h"

namespace gm::net {

inline constexpr std::uint8_t kMagic[4] = {0x47, 0x4D, 0x45, 0x4D};  // "GMEM"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;

/// Hard payload bound enforced before buffering: a length field above this
/// is a protocol error (kOversized), not an allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  // client -> server
  kQuery = 0x01,  ///< QueryFrame payload
  kPing = 0x02,   ///< empty payload; connectivity / drain probe
  // server -> client
  kResult = 0x81,  ///< ResultFrame payload
  kError = 0x82,   ///< ErrorFrame payload
  kPong = 0x83,    ///< empty payload
};

/// Typed failure taxonomy carried in kError frames. Codes <= kOversized are
/// protocol-level (the connection closes after the error frame); the rest
/// are per-request (the connection stays usable).
enum class ErrorCode : std::uint8_t {
  kMalformed = 1,        ///< payload does not parse as its frame type
  kBadMagic = 2,         ///< header magic mismatch (closes)
  kBadVersion = 3,       ///< unsupported protocol version (closes)
  kBadType = 4,          ///< unknown/unexpected frame type (closes)
  kOversized = 5,        ///< payload_len above the server's frame bound (closes)
  kOverloaded = 6,       ///< load shed / queue full — retry later
  kQuotaExceeded = 7,    ///< per-tenant in-flight quota exhausted
  kUnknownTenant = 8,    ///< tenant name matches no served reference
  kInvalidQuery = 9,     ///< request failed validation (empty query, bad deadline)
  kExpired = 10,         ///< deadline passed while queued (serve.deadline_miss)
  kFailed = 11,          ///< execution error; message has details
  kShuttingDown = 12,    ///< server is draining; no new work accepted
  kTooManyConnections = 13,  ///< connection cap reached (closes)
  kResultTooLarge = 14,  ///< result frame would exceed kMaxPayloadBytes
};

const char* to_string(ErrorCode code);
const char* to_string(FrameType type);

/// True for protocol-level errors after which the server closes the
/// connection (the byte stream can no longer be trusted).
bool closes_connection(ErrorCode code);

struct QueryFrame {
  std::string id;          ///< echoed in the response
  std::string tenant;      ///< registry routing; empty = server default
  std::string query;       ///< ASCII bases (non-ACGT mask per seq::NonAcgtPolicy)
  std::uint32_t deadline_ms = 0;  ///< 0 = server default
  /// Per-request minimum MEM length; 0 = the server engine's configured L.
  /// Values below the engine L are rejected (kInvalidQuery); values >= the
  /// server's long-MEM threshold route to the lazy FM-index fast path when
  /// the server runs with --long-mem (docs/SERVING.md).
  std::uint32_t min_length = 0;
};

struct ResultFrame {
  std::string id;
  bool warm = false;            ///< RunStats::index_cache_hit
  std::uint32_t queue_us = 0;   ///< submit -> dispatch, saturating
  std::uint32_t service_us = 0; ///< dispatch -> completion, saturating
  std::vector<mem::Mem> mems;   ///< canonical order, as Engine reports
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kFailed;
  std::string id;       ///< empty when the error predates request parsing
  std::string message;
};

// --- little-endian primitives (append / bounds-checked cursor reads) ------

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_string(std::vector<std::uint8_t>& out, const std::string& s);

/// Bounds-checked forward reader over a payload; any overrun marks the
/// cursor failed and every subsequent read returns 0/"".
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::string string16();  ///< u16 length + bytes

  bool failed() const noexcept { return failed_; }
  /// True when every byte was consumed and nothing overran — a payload
  /// with trailing garbage is malformed, not silently accepted.
  bool exhausted() const noexcept { return !failed_ && pos_ == size_; }

 private:
  bool need(std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- frame encoders (header + payload, ready to write) --------------------

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> encode_query(const QueryFrame& q);
std::vector<std::uint8_t> encode_result(const ResultFrame& r);
/// Payload bytes encode_result produces for an id of `id_bytes` bytes and
/// `mems` MEMs, computed without building the frame. Above
/// kMaxPayloadBytes every peer rejects the frame, so the server answers
/// kResultTooLarge instead.
std::size_t result_payload_bytes(std::size_t id_bytes, std::size_t mems);
std::vector<std::uint8_t> encode_error(const ErrorFrame& e);
std::vector<std::uint8_t> encode_ping();
std::vector<std::uint8_t> encode_pong();

// --- payload parsers ------------------------------------------------------

/// Each returns false (and fills `err`) on malformed payloads.
bool parse_query(const std::vector<std::uint8_t>& payload, QueryFrame& out,
                 std::string& err);
bool parse_result(const std::vector<std::uint8_t>& payload, ResultFrame& out,
                  std::string& err);
bool parse_error(const std::vector<std::uint8_t>& payload, ErrorFrame& out,
                 std::string& err);

// --- incremental decoder --------------------------------------------------

/// Streaming frame decoder: feed() buffers arbitrary byte fragments, next()
/// surfaces complete frames or the first protocol error. After an error the
/// decoder is poisoned — the stream has no resync point — and next()
/// reports the same error forever.
class FrameDecoder {
 public:
  struct Frame {
    FrameType type = FrameType::kPing;
    std::vector<std::uint8_t> payload;
  };

  enum class Status {
    kNeedMore,  ///< no complete frame buffered
    kFrame,     ///< `frame` filled
    kError,     ///< `error`/`error_message` filled; decoder poisoned
  };

  /// `max_payload` tightens the global kMaxPayloadBytes bound (servers pass
  /// their configured frame limit).
  explicit FrameDecoder(std::uint32_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void feed(const std::uint8_t* data, std::size_t n);

  Status next(Frame& frame, ErrorCode& error, std::string& error_message);

  /// Bytes buffered but not yet consumed by a surfaced frame.
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::uint32_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
  ErrorCode poison_code_ = ErrorCode::kMalformed;
  std::string poison_message_;
};

}  // namespace gm::net
