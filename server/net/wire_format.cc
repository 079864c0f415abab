#include "server/net/wire_format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace clic::server::net {
namespace {

// Same FNV-1a as sim/trace_io.cc: the checksum discipline the trace
// cache established, applied to wire frames.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void PutU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void PutHeader(std::uint8_t* h, FrameType type, std::uint16_t count,
               std::uint32_t payload_len, std::uint64_t seq) {
  PutU32(h, kFrameMagic);
  h[4] = kWireVersion;
  h[5] = static_cast<std::uint8_t>(type);
  PutU16(h + 6, count);
  PutU32(h + 8, payload_len);
  PutU64(h + 12, seq);
}

}  // namespace

const char* WireCodeName(std::uint16_t code) {
  switch (code) {
    case kWireApplied: return "applied";
    case kWireShed: return "shed";
    case kWireExpired: return "expired";
    case kWireStopped: return "stopped";
    case kWireBadMagic: return "bad_magic";
    case kWireBadVersion: return "bad_version";
    case kWireBadType: return "bad_type";
    case kWireBadCount: return "bad_count";
    case kWireBadLength: return "bad_length";
    case kWireBadChecksum: return "bad_checksum";
    case kWireBadPayload: return "bad_payload";
    case kWireServerBusy: return "server_busy";
    case kWireReadTimeout: return "read_timeout";
    default: return "unknown";
  }
}

void AppendBatchFrame(const Request* reqs, std::size_t n, std::uint64_t seq,
                      std::string* out) {
  assert(n >= 1 && n <= kWireMaxBatch);
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(n * kWireRequestBytes);
  const std::size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + payload_len + kFrameChecksumBytes);
  std::uint8_t* p = reinterpret_cast<std::uint8_t*>(&(*out)[start]);
  PutHeader(p, FrameType::kBatch, static_cast<std::uint16_t>(n), payload_len,
            seq);
  std::uint8_t* rec = p + kFrameHeaderBytes;
  for (std::size_t i = 0; i < n; ++i, rec += kWireRequestBytes) {
    PutU32(rec, reqs[i].page);
    PutU32(rec + 4, reqs[i].hint_set);
    PutU16(rec + 8, reqs[i].client);
    rec[10] = static_cast<std::uint8_t>(reqs[i].op);
    rec[11] = static_cast<std::uint8_t>(reqs[i].write_kind);
  }
  const std::uint64_t sum =
      Fnv1a(kFnvOffset, p, kFrameHeaderBytes + payload_len);
  PutU64(p + kFrameHeaderBytes + payload_len, sum);
}

void AppendReplyFrame(FrameType type, std::uint16_t code, std::uint64_t seq,
                      std::string* out) {
  const std::size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + kFrameChecksumBytes);
  std::uint8_t* p = reinterpret_cast<std::uint8_t*>(&(*out)[start]);
  PutHeader(p, type, code, 0, seq);
  PutU64(p + kFrameHeaderBytes, Fnv1a(kFnvOffset, p, kFrameHeaderBytes));
}

FrameParser::FrameParser(std::size_t max_batch)
    : max_batch_(max_batch == 0 || max_batch > kWireMaxBatch ? kWireMaxBatch
                                                             : max_batch) {}

ParseStatus FrameParser::Poison(std::uint16_t code,
                                const std::string& message) {
  poisoned_ = true;
  error_code_ = code;
  error_ = message;
  return ParseStatus::kError;
}

ParseStatus FrameParser::ValidateHeader() {
  const std::uint32_t magic = GetU32(header_);
  if (magic != kFrameMagic) {
    return Poison(kWireBadMagic, "bad frame magic");
  }
  if (header_[4] != kWireVersion) {
    return Poison(kWireBadVersion,
                  "unsupported frame version " + std::to_string(header_[4]));
  }
  const std::uint8_t type = header_[5];
  if (type < static_cast<std::uint8_t>(FrameType::kBatch) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    return Poison(kWireBadType,
                  "unknown frame type " + std::to_string(type));
  }
  type_ = static_cast<FrameType>(type);
  count_ = GetU16(header_ + 6);
  payload_len_ = GetU32(header_ + 8);
  seq_ = GetU64(header_ + 12);
  if (type_ == FrameType::kBatch) {
    if (count_ == 0 || count_ > max_batch_) {
      return Poison(kWireBadCount,
                    "batch count " + std::to_string(count_) +
                        " outside 1.." + std::to_string(max_batch_));
    }
    // The count/payload_len cross-check rejects a patched length field
    // at header time: the allocation below is bounded by max_batch
    // before it happens.
    if (payload_len_ !=
        static_cast<std::uint32_t>(count_) * kWireRequestBytes) {
      return Poison(kWireBadLength,
                    "payload length " + std::to_string(payload_len_) +
                        " != count*" + std::to_string(kWireRequestBytes));
    }
  } else if (payload_len_ != 0) {
    return Poison(kWireBadLength, "status/error frame with a payload");
  }
  header_done_ = true;
  body_need_ = payload_len_ + kFrameChecksumBytes;
  body_.clear();
  body_.reserve(body_need_);
  return ParseStatus::kNeedMore;
}

ParseStatus FrameParser::FinishFrame(ParsedFrame* out) {
  std::uint64_t sum = Fnv1a(kFnvOffset, header_, kFrameHeaderBytes);
  sum = Fnv1a(sum, body_.data(), payload_len_);
  if (sum != GetU64(body_.data() + payload_len_)) {
    return Poison(kWireBadChecksum, "frame checksum mismatch");
  }
  out->type = type_;
  out->code = count_;
  out->seq = seq_;
  out->requests.clear();
  if (type_ == FrameType::kBatch) {
    out->requests.reserve(count_);
    const std::uint8_t* rec = body_.data();
    for (std::uint16_t i = 0; i < count_; ++i, rec += kWireRequestBytes) {
      Request r;
      r.page = GetU32(rec);
      r.hint_set = GetU32(rec + 4);
      r.client = GetU16(rec + 8);
      if (rec[10] > 1 || rec[11] > 2) {
        return Poison(kWireBadPayload,
                      "request " + std::to_string(i) +
                          " has an out-of-range op/write_kind");
      }
      r.op = static_cast<OpType>(rec[10]);
      r.write_kind = static_cast<WriteKind>(rec[11]);
      out->requests.push_back(r);
    }
  }
  // Reset for the next frame.
  have_ = 0;
  header_done_ = false;
  body_.clear();
  body_need_ = 0;
  ++frames_;
  return ParseStatus::kFrame;
}

ParseStatus FrameParser::Consume(const std::uint8_t** data, std::size_t* len,
                                 ParsedFrame* out) {
  if (poisoned_) return ParseStatus::kError;
  while (*len > 0) {
    if (!header_done_) {
      const std::size_t take =
          std::min(*len, kFrameHeaderBytes - have_);
      std::memcpy(header_ + have_, *data, take);
      have_ += take;
      *data += take;
      *len -= take;
      if (have_ < kFrameHeaderBytes) return ParseStatus::kNeedMore;
      const ParseStatus st = ValidateHeader();
      if (st == ParseStatus::kError) return st;
    }
    const std::size_t missing = body_need_ - body_.size();
    const std::size_t take = std::min(*len, missing);
    body_.insert(body_.end(), *data, *data + take);
    *data += take;
    *len -= take;
    if (body_.size() < body_need_) return ParseStatus::kNeedMore;
    return FinishFrame(out);
  }
  return ParseStatus::kNeedMore;
}

}  // namespace clic::server::net
