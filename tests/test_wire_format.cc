// Wire-frame contract tests, mirroring test_trace_io's corruption
// discipline at the protocol layer: round-trips survive arbitrary
// re-chunking (byte-at-a-time, torn boundaries), and every seeded
// single-bit flip, truncation, or patched giant length field fails
// CLOSED — a typed error, never a silently-wrong frame and never an
// unbounded allocation.
#include "server/net/wire_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/fnv1a.h"
#include "core/trace.h"

namespace clic::server::net {
namespace {

std::vector<Request> MakeRequests(std::size_t n, std::uint32_t salt) {
  std::vector<Request> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = static_cast<PageId>((i * 7919 + salt) % 100003);
    r.hint_set = static_cast<HintSetId>((i + salt) % 17);
    r.client = static_cast<ClientId>(i % 5);
    if (i % 4 == 1) {
      r.op = OpType::kWrite;
      r.write_kind =
          i % 8 == 1 ? WriteKind::kRecovery : WriteKind::kReplacement;
    }
    reqs.push_back(r);
  }
  return reqs;
}

void ExpectSameRequests(const std::vector<Request>& a,
                        const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].page, b[i].page) << "request " << i;
    EXPECT_EQ(a[i].hint_set, b[i].hint_set) << "request " << i;
    EXPECT_EQ(a[i].client, b[i].client) << "request " << i;
    EXPECT_EQ(a[i].op, b[i].op) << "request " << i;
    EXPECT_EQ(a[i].write_kind, b[i].write_kind) << "request " << i;
  }
}

/// Feeds `bytes` to a fresh parser in chunks of `chunk` and returns the
/// final status (kFrame only if exactly one frame completed and the
/// input was fully consumed).
ParseStatus FeedChunked(const std::string& bytes, std::size_t chunk,
                        std::size_t max_batch, ParsedFrame* out) {
  FrameParser parser(max_batch);
  const std::uint8_t* base =
      reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t off = 0;
  ParseStatus last = ParseStatus::kNeedMore;
  while (off < bytes.size()) {
    const std::uint8_t* p = base + off;
    std::size_t len = std::min(chunk, bytes.size() - off);
    const std::size_t fed = len;
    last = parser.Consume(&p, &len, out);
    if (last == ParseStatus::kError) return last;
    off += fed - len;
  }
  return last;
}

// ---- round trips -----------------------------------------------------------

TEST(WireFormatTest, BatchRoundTrip) {
  const std::vector<Request> reqs = MakeRequests(37, 11);
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 42, &bytes);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + reqs.size() * kWireRequestBytes +
                              kFrameChecksumBytes);
  ParsedFrame frame;
  ASSERT_EQ(FeedChunked(bytes, bytes.size(), 4096, &frame),
            ParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kBatch);
  EXPECT_EQ(frame.seq, 42u);
  ExpectSameRequests(reqs, frame.requests);
}

TEST(WireFormatTest, ByteAtATimeReassembly) {
  // Sockets deliver arbitrary chunks; one byte at a time is the
  // worst-case torn write and must decode identically.
  const std::vector<Request> reqs = MakeRequests(9, 3);
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 7, &bytes);
  ParsedFrame frame;
  ASSERT_EQ(FeedChunked(bytes, 1, 4096, &frame), ParseStatus::kFrame);
  ExpectSameRequests(reqs, frame.requests);
}

TEST(WireFormatTest, ReplyRoundTrip) {
  std::string bytes;
  AppendReplyFrame(FrameType::kStatus, kWireShed, 99, &bytes);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + kFrameChecksumBytes);
  ParsedFrame frame;
  ASSERT_EQ(FeedChunked(bytes, 3, 4096, &frame), ParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStatus);
  EXPECT_EQ(frame.code, kWireShed);
  EXPECT_EQ(frame.seq, 99u);
  EXPECT_TRUE(frame.requests.empty());
}

TEST(WireFormatTest, ChecksumKnownAnswer) {
  // Pins the frame checksum of one fixed 2-request frame, so a change
  // of the checksum algorithm is a visible change of the wire format.
  std::vector<Request> reqs(2);
  reqs[0].page = 0x01020304;
  reqs[0].hint_set = 5;
  reqs[0].client = 2;
  reqs[1].page = 7;
  reqs[1].hint_set = 0x00ABCDEF;
  reqs[1].client = 1;
  reqs[1].op = OpType::kWrite;
  reqs[1].write_kind = WriteKind::kRecovery;
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 0x1122334455667788ull, &bytes);
  ASSERT_EQ(bytes.size(), 52u);
  const auto* raw = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::uint64_t sum = FrameChecksum(raw, raw + kFrameHeaderBytes, 24);
  EXPECT_EQ(sum, 0xA2702BB3CFF5E7CFull);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(raw[44 + i], static_cast<std::uint8_t>(sum >> (8 * i)))
        << "checksum byte " << i;
  }
}

TEST(WireFormatTest, MultipleFramesInOneBuffer) {
  std::string bytes;
  const std::vector<Request> a = MakeRequests(5, 1);
  const std::vector<Request> b = MakeRequests(12, 2);
  AppendBatchFrame(a.data(), a.size(), 1, &bytes);
  AppendReplyFrame(FrameType::kError, kWireBadChecksum, 1, &bytes);
  AppendBatchFrame(b.data(), b.size(), 2, &bytes);

  FrameParser parser(4096);
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t len = bytes.size();
  ParsedFrame frame;
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kFrame);
  ExpectSameRequests(a, frame.requests);
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.code, kWireBadChecksum);
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kFrame);
  ExpectSameRequests(b, frame.requests);
  EXPECT_EQ(len, 0u);
  EXPECT_EQ(parser.frames(), 3u);
  EXPECT_FALSE(parser.HasPartial());
}

// ---- speed -----------------------------------------------------------------

/// Best of `passes` wall-clock runs of `pass`, in nanoseconds.
template <typename Pass>
double BestNs(int passes, Pass pass) {
  double best = 0;
  for (int i = 0; i < passes; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pass();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

TEST(WireFormatTest, CodecOutrunsByteSerialFnv) {
  // A ratio gate that holds on any machine: encoding and parsing a
  // frame must each run at least twice as fast as one byte-serial
  // FNV-1a pass over the same bytes, measured in this process. A codec
  // that hashes or decodes a frame one dependent byte at a time cannot
  // pass it.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the codec ratio gate needs an NDEBUG build without "
                  "sanitizers";
#endif
  constexpr std::size_t kFrames = 2000;
  constexpr std::size_t kBatch = 64;
  constexpr int kPasses = 5;
  const std::vector<Request> reqs = MakeRequests(kFrames * kBatch, 3);
  std::string wire;
  const double encode_ns = BestNs(kPasses, [&] {
    wire.clear();
    for (std::size_t f = 0; f < kFrames; ++f) {
      AppendBatchFrame(reqs.data() + f * kBatch, kBatch, f + 1, &wire);
    }
  });
  std::size_t parsed = 0;
  ParsedFrame frame;
  const double parse_ns = BestNs(kPasses, [&] {
    FrameParser parser(kBatch);
    const auto* p = reinterpret_cast<const std::uint8_t*>(wire.data());
    std::size_t len = wire.size();
    while (parser.Consume(&p, &len, &frame) == ParseStatus::kFrame) {
    }
    parsed = parser.frames();
  });
  ASSERT_EQ(parsed, kFrames);
  ExpectSameRequests(
      std::vector<Request>(reqs.end() - kBatch, reqs.end()), frame.requests);
  std::uint64_t digest = 0;
  const double fnv_ns = BestNs(kPasses, [&] {
    Fnv1a h;
    h.Mix(wire.data(), wire.size());
    digest = h.value();
  });
  EXPECT_NE(digest, 0u);
  const double per_req = 1.0 / (kFrames * kBatch);
  std::printf(
      "AppendBatchFrame %.2f ns/req, FrameParser::Consume %.2f ns/req, "
      "byte-serial FNV-1a %.2f ns/req (%.1fx, %.1fx)\n",
      encode_ns * per_req, parse_ns * per_req, fnv_ns * per_req,
      fnv_ns / encode_ns, fnv_ns / parse_ns);
  EXPECT_GE(fnv_ns / encode_ns, 2.0) << "AppendBatchFrame is too slow";
  EXPECT_GE(fnv_ns / parse_ns, 2.0) << "FrameParser::Consume is too slow";
}

// ---- fail-closed fuzzing ---------------------------------------------------

/// Parses `bytes` whole with a fresh parser; true when it poisoned the
/// parser with a typed error (a WireCode >= 16 and a message).
bool FailsClosed(const std::string& bytes) {
  FrameParser parser(4096);
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t len = bytes.size();
  ParsedFrame frame;
  return parser.Consume(&p, &len, &frame) == ParseStatus::kError &&
         parser.error_code() >= 16 && !parser.error().empty();
}

void FlipBit(std::string* bytes, std::size_t bit) {
  (*bytes)[bit / 8] =
      static_cast<char>((*bytes)[bit / 8] ^ (1u << (bit % 8)));
}

TEST(WireFormatFuzzTest, EverySingleBitFlipFailsClosed) {
  // The count/payload_len cross-check plus the checksum guarantee: no
  // flip of one bit, or of any two bits, anywhere in a frame yields
  // kFrame. Every such flip of batch frames of 1, 2, 5 and 8 requests
  // (40-124 bytes) and of a status frame must poison the parser with a
  // typed error code.
  std::vector<std::string> frames;
  for (const std::size_t n : {1, 2, 5, 8}) {
    const std::vector<Request> reqs = MakeRequests(n, 5);
    frames.emplace_back();
    AppendBatchFrame(reqs.data(), reqs.size(), 13, &frames.back());
  }
  frames.emplace_back();
  AppendReplyFrame(FrameType::kStatus, kWireApplied, 13, &frames.back());
  for (const std::string& clean : frames) {
    ASSERT_FALSE(FailsClosed(clean));
    std::string bytes = clean;
    const std::size_t bits = bytes.size() * 8;
    for (std::size_t a = 0; a < bits; ++a) {
      FlipBit(&bytes, a);
      ASSERT_TRUE(FailsClosed(bytes))
          << clean.size() << "-byte frame, bit " << a << " flipped";
      for (std::size_t b = a + 1; b < bits; ++b) {
        FlipBit(&bytes, b);
        ASSERT_TRUE(FailsClosed(bytes)) << clean.size() << "-byte frame, bits "
                                        << a << " and " << b << " flipped";
        FlipBit(&bytes, b);
      }
      FlipBit(&bytes, a);
    }
  }
}

TEST(WireFormatFuzzTest, TruncationsNeverYieldAFrame) {
  const std::vector<Request> reqs = MakeRequests(8, 9);
  std::string clean;
  AppendBatchFrame(reqs.data(), reqs.size(), 1, &clean);
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    ParsedFrame frame;
    const ParseStatus st =
        FeedChunked(clean.substr(0, cut), 7, 4096, &frame);
    // A truncated valid frame is simply incomplete — kNeedMore, never a
    // decoded frame and never a spurious error.
    EXPECT_EQ(st, ParseStatus::kNeedMore) << "cut at " << cut;
  }
}

TEST(WireFormatFuzzTest, PatchedGiantLengthRejectedAtHeaderTime) {
  // A patched count/payload_len pair consistent with each other but far
  // beyond the configured bound must be rejected from the 20 header
  // bytes alone — before the parser reserves a single payload byte.
  const std::vector<Request> reqs = MakeRequests(4, 2);
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 1, &bytes);
  // Patch count to 0xFFFF and payload_len to the matching 786420 bytes,
  // keeping the cross-check consistent so only the max_batch bound can
  // reject it.
  bytes[6] = static_cast<char>(0xFF);
  bytes[7] = static_cast<char>(0xFF);
  const std::uint32_t giant = 0xFFFFu * 12u;
  for (int i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<char>((giant >> (8 * i)) & 0xFF);
  }
  FrameParser parser(/*max_batch=*/16);
  // Feed ONLY the header: rejection must not wait for payload bytes.
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t len = kFrameHeaderBytes;
  ParsedFrame frame;
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kError);
  EXPECT_EQ(parser.error_code(), kWireBadCount);
}

TEST(WireFormatFuzzTest, InconsistentLengthRejectedAtHeaderTime) {
  const std::vector<Request> reqs = MakeRequests(4, 2);
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 1, &bytes);
  // Patch only payload_len (count untouched): the cross-check breaks.
  bytes[8] = static_cast<char>(bytes[8] ^ 0x40);
  FrameParser parser(4096);
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t len = kFrameHeaderBytes;
  ParsedFrame frame;
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kError);
  EXPECT_EQ(parser.error_code(), kWireBadLength);
}

TEST(WireFormatFuzzTest, VersionOneFrameRejectedAtHeaderTime) {
  // Version 1 frames carried an FNV-1a checksum; a version 2 parser
  // names the mismatch from the 20 header bytes instead of reporting a
  // bad checksum.
  const std::vector<Request> reqs = MakeRequests(4, 2);
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 1, &bytes);
  bytes[4] = 1;
  FrameParser parser(4096);
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t len = kFrameHeaderBytes;
  ParsedFrame frame;
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kError);
  EXPECT_EQ(parser.error_code(), kWireBadVersion);
}

TEST(WireFormatFuzzTest, GarbageStreamsFailClosed) {
  // Random byte streams (seeded): the parser must either want more
  // bytes or poison with a typed error — never produce a frame, never
  // crash (the ASan job gives this test its allocation teeth).
  std::mt19937_64 rng(0xFA57u);
  for (int trial = 0; trial < 64; ++trial) {
    std::string bytes(64 + rng() % 256, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xFF);
    ParsedFrame frame;
    const ParseStatus st = FeedChunked(bytes, 1 + rng() % 17, 64, &frame);
    if (st == ParseStatus::kError) {
      FrameParser check(64);
      const std::uint8_t* p =
          reinterpret_cast<const std::uint8_t*>(bytes.data());
      std::size_t len = bytes.size();
      check.Consume(&p, &len, &frame);
      EXPECT_GE(check.error_code(), 16u);
    } else {
      EXPECT_EQ(st, ParseStatus::kNeedMore);
    }
  }
}

TEST(WireFormatFuzzTest, BadOpAndWriteKindRejected) {
  const std::vector<Request> reqs = MakeRequests(3, 1);
  std::string bytes;
  AppendBatchFrame(reqs.data(), reqs.size(), 1, &bytes);
  // Corrupt the first record's op byte to 7 and re-checksum so only the
  // payload validation can catch it.
  std::string patched = bytes;
  patched[kFrameHeaderBytes + 10] = 7;
  const std::size_t body = patched.size() - kFrameChecksumBytes;
  const auto* raw = reinterpret_cast<const std::uint8_t*>(patched.data());
  const std::uint64_t sum =
      FrameChecksum(raw, raw + kFrameHeaderBytes, body - kFrameHeaderBytes);
  for (int i = 0; i < 8; ++i) {
    patched[body + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  }
  ParsedFrame frame;
  ASSERT_EQ(FeedChunked(patched, patched.size(), 4096, &frame),
            ParseStatus::kError);
  FrameParser parser(4096);
  const std::uint8_t* p =
      reinterpret_cast<const std::uint8_t*>(patched.data());
  std::size_t len = patched.size();
  parser.Consume(&p, &len, &frame);
  EXPECT_EQ(parser.error_code(), kWireBadPayload);
  EXPECT_EQ(parser.rejected_batch_count(), 3u);
}

TEST(WireFormatFuzzTest, PoisonIsSticky) {
  std::string garbage(40, '\x5A');
  FrameParser parser(4096);
  const std::uint8_t* p =
      reinterpret_cast<const std::uint8_t*>(garbage.data());
  std::size_t len = garbage.size();
  ParsedFrame frame;
  ASSERT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kError);
  // A poisoned parser stays poisoned even for valid follow-up bytes:
  // the connection is past saving.
  std::string valid;
  const std::vector<Request> reqs = MakeRequests(2, 1);
  AppendBatchFrame(reqs.data(), reqs.size(), 1, &valid);
  p = reinterpret_cast<const std::uint8_t*>(valid.data());
  len = valid.size();
  EXPECT_EQ(parser.Consume(&p, &len, &frame), ParseStatus::kError);
}

}  // namespace
}  // namespace clic::server::net
