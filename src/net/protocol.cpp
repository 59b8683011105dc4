#include "net/protocol.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace gm::net {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kBadMagic: return "bad-magic";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kBadType: return "bad-type";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kQuotaExceeded: return "quota-exceeded";
    case ErrorCode::kUnknownTenant: return "unknown-tenant";
    case ErrorCode::kInvalidQuery: return "invalid-query";
    case ErrorCode::kExpired: return "expired";
    case ErrorCode::kFailed: return "failed";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kTooManyConnections: return "too-many-connections";
    case ErrorCode::kResultTooLarge: return "result-too-large";
  }
  return "unknown";
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kQuery: return "query";
    case FrameType::kPing: return "ping";
    case FrameType::kResult: return "result";
    case FrameType::kError: return "error";
    case FrameType::kPong: return "pong";
  }
  return "unknown";
}

bool closes_connection(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed:
    case ErrorCode::kBadMagic:
    case ErrorCode::kBadVersion:
    case ErrorCode::kBadType:
    case ErrorCode::kOversized:
    case ErrorCode::kTooManyConnections:
      return true;
    default:
      return false;
  }
}

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  const std::uint16_t n = static_cast<std::uint16_t>(
      std::min<std::size_t>(s.size(), std::numeric_limits<std::uint16_t>::max()));
  append_u16(out, n);
  out.insert(out.end(), s.begin(), s.begin() + n);
}

bool Cursor::need(std::size_t n) {
  if (failed_ || size_ - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t Cursor::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Cursor::u16() {
  if (!need(2)) return 0;
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Cursor::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::string Cursor::string16() {
  const std::uint16_t n = u16();
  if (!need(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  out.reserve(kHeaderBytes + payload.size());
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  append_u16(out, 0);  // flags
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encode_query(const QueryFrame& q) {
  std::vector<std::uint8_t> p;
  p.reserve(16 + q.id.size() + q.tenant.size() + q.query.size());
  append_string(p, q.id);
  append_string(p, q.tenant);
  append_u32(p, q.deadline_ms);
  append_u32(p, q.min_length);
  append_u32(p, static_cast<std::uint32_t>(q.query.size()));
  p.insert(p.end(), q.query.begin(), q.query.end());
  return encode_frame(FrameType::kQuery, p);
}

std::size_t result_payload_bytes(std::size_t id_bytes, std::size_t mems) {
  // u16 id length + id, warm flag, queue_us, service_us, MEM count, then
  // (r, q, len) as three u32 per MEM.
  // append_string caps the id at a u16 length.
  return 2 + std::min<std::size_t>(id_bytes, 0xFFFF) + 1 + 4 + 4 + 4 +
         mems * 12;
}

std::vector<std::uint8_t> encode_result(const ResultFrame& r) {
  std::vector<std::uint8_t> p;
  p.reserve(result_payload_bytes(r.id.size(), r.mems.size()));
  append_string(p, r.id);
  p.push_back(r.warm ? 1 : 0);
  append_u32(p, r.queue_us);
  append_u32(p, r.service_us);
  append_u32(p, static_cast<std::uint32_t>(r.mems.size()));
  for (const mem::Mem& m : r.mems) {
    append_u32(p, m.r);
    append_u32(p, m.q);
    append_u32(p, m.len);
  }
  return encode_frame(FrameType::kResult, p);
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& e) {
  std::vector<std::uint8_t> p;
  p.reserve(5 + e.id.size() + e.message.size());
  p.push_back(static_cast<std::uint8_t>(e.code));
  append_string(p, e.id);
  append_string(p, e.message);
  return encode_frame(FrameType::kError, p);
}

std::vector<std::uint8_t> encode_ping() { return encode_frame(FrameType::kPing, {}); }
std::vector<std::uint8_t> encode_pong() { return encode_frame(FrameType::kPong, {}); }

bool parse_query(const std::vector<std::uint8_t>& payload, QueryFrame& out,
                 std::string& err) {
  Cursor c(payload.data(), payload.size());
  out.id = c.string16();
  out.tenant = c.string16();
  out.deadline_ms = c.u32();
  out.min_length = c.u32();
  const std::uint32_t qlen = c.u32();
  if (c.failed()) {
    err = "truncated query payload";
    return false;
  }
  // The query body is the u32-prefixed tail; read it manually so a length
  // that disagrees with the payload size is a parse error, not a short read.
  const std::size_t fixed =
      2 + out.id.size() + 2 + out.tenant.size() + 4 + 4 + 4;
  if (payload.size() != fixed + qlen) {
    err = "query length field disagrees with payload size";
    return false;
  }
  out.query.assign(reinterpret_cast<const char*>(payload.data() + fixed), qlen);
  return true;
}

bool parse_result(const std::vector<std::uint8_t>& payload, ResultFrame& out,
                  std::string& err) {
  Cursor c(payload.data(), payload.size());
  out.id = c.string16();
  out.warm = c.u8() != 0;
  out.queue_us = c.u32();
  out.service_us = c.u32();
  const std::uint32_t n = c.u32();
  if (c.failed()) {
    err = "truncated result payload";
    return false;
  }
  // 12 bytes per MEM; reject a count that overruns before allocating.
  const std::size_t fixed = 2 + out.id.size() + 1 + 4 + 4 + 4;
  if (payload.size() != fixed + static_cast<std::size_t>(n) * 12) {
    err = "MEM count disagrees with payload size";
    return false;
  }
  out.mems.clear();
  out.mems.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    mem::Mem m;
    m.r = c.u32();
    m.q = c.u32();
    m.len = c.u32();
    out.mems.push_back(m);
  }
  if (c.failed() || !c.exhausted()) {
    err = "truncated result payload";
    return false;
  }
  return true;
}

bool parse_error(const std::vector<std::uint8_t>& payload, ErrorFrame& out,
                 std::string& err) {
  Cursor c(payload.data(), payload.size());
  out.code = static_cast<ErrorCode>(c.u8());
  out.id = c.string16();
  out.message = c.string16();
  if (c.failed() || !c.exhausted()) {
    err = "truncated error payload";
    return false;
  }
  if (to_string(out.code) == std::string("unknown")) {
    err = "unknown error code";
    return false;
  }
  return true;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;  // stream already unrecoverable; drop
  // Compact the consumed prefix before appending so a long-lived
  // connection's buffer stays proportional to one frame.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Status FrameDecoder::next(Frame& frame, ErrorCode& error,
                                        std::string& error_message) {
  if (poisoned_) {
    error = poison_code_;
    error_message = poison_message_;
    return Status::kError;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return Status::kNeedMore;
  const std::uint8_t* h = buf_.data() + pos_;

  const auto poison = [&](ErrorCode code, std::string msg) {
    poisoned_ = true;
    poison_code_ = code;
    poison_message_ = std::move(msg);
    error = poison_code_;
    error_message = poison_message_;
    return Status::kError;
  };

  if (std::memcmp(h, kMagic, 4) != 0) {
    return poison(ErrorCode::kBadMagic, "bad frame magic");
  }
  if (h[4] != kVersion) {
    return poison(ErrorCode::kBadVersion,
                  "unsupported protocol version " + std::to_string(h[4]));
  }
  const std::uint8_t t = h[5];
  const bool known_type =
      t == static_cast<std::uint8_t>(FrameType::kQuery) ||
      t == static_cast<std::uint8_t>(FrameType::kPing) ||
      t == static_cast<std::uint8_t>(FrameType::kResult) ||
      t == static_cast<std::uint8_t>(FrameType::kError) ||
      t == static_cast<std::uint8_t>(FrameType::kPong);
  if (!known_type) {
    return poison(ErrorCode::kBadType,
                  "unknown frame type " + std::to_string(t));
  }
  std::uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<std::uint32_t>(h[8 + i]) << (8 * i);
  }
  if (payload_len > max_payload_) {
    return poison(ErrorCode::kOversized,
                  "payload length " + std::to_string(payload_len) +
                      " exceeds the " + std::to_string(max_payload_) +
                      "-byte frame bound");
  }
  if (avail < kHeaderBytes + payload_len) return Status::kNeedMore;

  frame.type = static_cast<FrameType>(t);
  frame.payload.assign(h + kHeaderBytes, h + kHeaderBytes + payload_len);
  pos_ += kHeaderBytes + payload_len;
  return Status::kFrame;
}

}  // namespace gm::net
