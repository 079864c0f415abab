#include "server/net/wire_format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace clic::server::net {
namespace {

// Little-endian loads and stores over single bytes and shifts: correct
// on any host byte order, free of alignment and aliasing assumptions,
// and merged by the compiler into one move per field where the host is
// little-endian.
void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64(std::uint8_t* p, std::uint64_t v) {
  PutU32(p, static_cast<std::uint32_t>(v));
  PutU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

// xxHash64's primes (odd, so multiplying by one is a bijection).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;

/// One checksum step: a bijection of `acc` for a fixed word and of
/// `word` for a fixed acc (odd multiplies, an add and a rotate).
std::uint64_t Round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kPrime2;
  acc = acc << 31 | acc >> 33;
  return acc * kPrime1;
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

std::uint64_t FrameChecksum(const std::uint8_t* header,
                            const std::uint8_t* payload,
                            std::size_t payload_len) {
  assert(payload_len % 4 == 0);
  std::uint64_t h = kPrime3 + payload_len;
  h = Round(h, GetU64(header));
  h = Round(h, GetU64(header + 8));
  h = Round(h, GetU32(header + 16));
  // Four independent lanes over the payload's 32-byte stripes.
  std::uint64_t lane0 = kPrime1 + kPrime2;
  std::uint64_t lane1 = kPrime2;
  std::uint64_t lane2 = 0;
  std::uint64_t lane3 = 0 - kPrime1;
  const std::uint8_t* p = payload;
  const std::uint8_t* const end = payload + payload_len;
  for (; end - p >= 32; p += 32) {
    lane0 = Round(lane0, GetU64(p));
    lane1 = Round(lane1, GetU64(p + 8));
    lane2 = Round(lane2, GetU64(p + 16));
    lane3 = Round(lane3, GetU64(p + 24));
  }
  h = Round(Round(Round(Round(h, lane0), lane1), lane2), lane3);
  for (; end - p >= 8; p += 8) h = Round(h, GetU64(p));
  if (p != end) h = Round(h, GetU32(p));  // the last 4 bytes, zero-padded
  // xxHash64's avalanche: xor-shifts and odd multiplies, each a bijection.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ h >> 32;
}

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
    const Request& r = reqs[i];
    PutU64(rec, std::uint64_t{r.page} | std::uint64_t{r.hint_set} << 32);
    PutU32(rec + 8, std::uint32_t{r.client} |
                        std::uint32_t{static_cast<std::uint8_t>(r.op)} << 16 |
                        std::uint32_t{static_cast<std::uint8_t>(r.write_kind)}
                            << 24);
  }
  PutU64(p + kFrameHeaderBytes + payload_len,
         FrameChecksum(p, p + kFrameHeaderBytes, payload_len));
}

void AppendReplyFrame(FrameType type, std::uint16_t code, std::uint64_t seq,
                      std::string* out) {
  const std::size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + kFrameChecksumBytes);
  std::uint8_t* p = reinterpret_cast<std::uint8_t*>(&(*out)[start]);
  PutHeader(p, type, code, 0, seq);
  PutU64(p + kFrameHeaderBytes, FrameChecksum(p, nullptr, 0));
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
  if (FrameChecksum(header_, body_.data(), payload_len_) !=
      GetU64(body_.data() + payload_len_)) {
    return Poison(kWireBadChecksum, "frame checksum mismatch");
  }
  out->type = type_;
  out->code = count_;
  out->seq = seq_;
  if (type_ != FrameType::kBatch) {
    out->requests.clear();
  } else {
    // Decode every record, folding the op/write_kind range checks into
    // one flag, so a frame takes a single branch on them.
    out->requests.resize(count_);
    Request* r = out->requests.data();
    const std::uint8_t* rec = body_.data();
    bool bad = false;
    for (std::uint16_t i = 0; i < count_; ++i, rec += kWireRequestBytes) {
      const std::uint64_t lo = GetU64(rec);
      const std::uint32_t hi = GetU32(rec + 8);
      const auto op = static_cast<std::uint8_t>(hi >> 16);
      const auto write_kind = static_cast<std::uint8_t>(hi >> 24);
      bad |= (op > 1) | (write_kind > 2);
      r[i].page = static_cast<PageId>(lo);
      r[i].hint_set = static_cast<HintSetId>(lo >> 32);
      r[i].client = static_cast<ClientId>(hi);
      r[i].op = static_cast<OpType>(op);
      r[i].write_kind = static_cast<WriteKind>(write_kind);
    }
    if (bad) {
      out->requests.clear();
      std::uint16_t i = 0;
      for (rec = body_.data(); rec[10] <= 1 && rec[11] <= 2;
           rec += kWireRequestBytes) {
        ++i;
      }
      return Poison(kWireBadPayload,
                    "request " + std::to_string(i) +
                        " has an out-of-range op/write_kind");
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
