// Wire frame format for the network front end: a compact
// length-prefixed binary protocol carrying batches of the same packed
// 12-byte request records the trace cache stores (sim/trace_io.cc),
// with the same fail-closed discipline — magic, version, every length
// cross-checked against the header AND bounded by configuration before
// a single payload byte is buffered, and a running FNV-1a checksum over
// the whole frame compared last.
//
//   Request/batch frame (client -> server), little-endian:
//     u32 magic        0x434C4946 ("CLIF")
//     u8  version      1
//     u8  type         1 = batch
//     u16 count        requests in the batch, 1 .. max_batch
//     u32 payload_len  must equal count * 12 (redundant on purpose:
//                      a bit flip in either field breaks the cross
//                      check at header time, before any allocation)
//     u64 seq          1-based frame sequence within the connection
//     payload          count packed records:
//                        u32 page, u32 hint_set, u16 client,
//                        u8 op (<= 1), u8 write_kind (<= 2)
//     u64 checksum     FNV-1a over header + payload
//
//   Status / error frame (server -> client): same header with type 2
//   (status) or 3 (error), `count` carrying a WireCode, payload_len 0,
//   and seq echoing the request frame it answers (errors echo the
//   frame counter at the point of failure). 28 bytes total.
//
// The parser is incremental (sockets deliver arbitrary byte chunks —
// torn writes and partial reads are the normal case, not the
// exception) and fail-closed: the first malformed header or checksum
// mismatch poisons the parser with a typed error; the connection must
// send the error frame and close. Hint-id sanity is deliberately NOT
// checked here: the server's hint-sanity guard quarantines out-of-
// bound hint ids with exact accounting (server/cache_server.h), which
// degrades service instead of dropping the connection.
//
// This header depends only on core/trace.h so the client side links
// without the server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"

namespace clic::server::net {

inline constexpr std::uint32_t kFrameMagic = 0x434C4946u;  // "CLIF"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;
inline constexpr std::size_t kFrameChecksumBytes = 8;
inline constexpr std::size_t kWireRequestBytes = 12;
/// Hard ceiling on requests per frame (u16 count field); the parser's
/// configured max_batch may only lower it.
inline constexpr std::size_t kWireMaxBatch = 0xFFFF;

enum class FrameType : std::uint8_t {
  kBatch = 1,   // client -> server: a batch of requests
  kStatus = 2,  // server -> client: admission outcome for one batch
  kError = 3,   // server -> client: typed parse/served error, then close
};

/// Status codes carried in the `count` field of status/error frames.
/// 0..15 map admission outcomes (SubmitResult) so backpressure is
/// visible on the wire; 16+ are frame-level errors that precede (and
/// explain) a connection close.
enum WireCode : std::uint16_t {
  kWireApplied = 0,
  kWireShed = 1,
  kWireExpired = 3,  // 2 is unassigned
  kWireStopped = 4,
  kWireBadMagic = 16,
  kWireBadVersion = 17,
  kWireBadType = 18,
  kWireBadCount = 19,
  kWireBadLength = 20,
  kWireBadChecksum = 21,
  kWireBadPayload = 22,
  kWireServerBusy = 23,   // accept-time shed: connection table full
  kWireReadTimeout = 24,  // slowloris eviction: partial frame too old
};
const char* WireCodeName(std::uint16_t code);

/// One decoded frame. For kBatch, `code` is the request count and
/// `requests` holds the records; for kStatus/kError, `code` is the
/// WireCode and `requests` is empty.
struct ParsedFrame {
  FrameType type = FrameType::kBatch;
  std::uint16_t code = 0;
  std::uint64_t seq = 0;
  std::vector<Request> requests;
};

/// Appends one batch frame for requests [reqs, reqs + n) to `out`.
/// n must be 1 .. kWireMaxBatch (asserted).
void AppendBatchFrame(const Request* reqs, std::size_t n, std::uint64_t seq,
                      std::string* out);

/// Appends one 28-byte status/error frame.
void AppendReplyFrame(FrameType type, std::uint16_t code, std::uint64_t seq,
                      std::string* out);

enum class ParseStatus : std::uint8_t {
  kNeedMore,  // no complete frame in the bytes consumed so far
  kFrame,     // *out holds one decoded frame; call again for more
  kError,     // malformed input; parser poisoned, connection must close
};

/// Incremental fail-closed frame parser. Feed socket bytes through
/// Consume(); it buffers at most one partial frame (header fixed-size,
/// payload reserved only after the header's cross-checked, config-
/// bounded lengths validate — a patched giant length field is rejected
/// while still 20 bytes in). After kError the parser stays poisoned:
/// error_code()/error() describe the first failure.
class FrameParser {
 public:
  /// `max_batch` bounds `count` (and with it the payload allocation) in
  /// accepted batch frames; clamped to kWireMaxBatch.
  explicit FrameParser(std::size_t max_batch);

  /// Consumes bytes from *data/*len (advancing both) until one frame
  /// completes, the input runs dry, or a malformed byte poisons the
  /// parser. Call in a loop while it returns kFrame.
  ParseStatus Consume(const std::uint8_t** data, std::size_t* len,
                      ParsedFrame* out);

  /// Typed error (a WireCode >= 16) after kError.
  std::uint16_t error_code() const { return error_code_; }
  const std::string& error() const { return error_; }

  /// True when a partial frame is buffered — the slowloris signal the
  /// per-connection read deadline watches.
  bool HasPartial() const { return have_ > 0 || body_.size() > 0; }

  /// Completed (fully validated) frames so far.
  std::uint64_t frames() const { return frames_; }

  /// After kError: the request count of the rejected batch frame, when
  /// the header itself had validated (checksum/payload failures) — 0
  /// when the header was already unreadable, since any count field in
  /// garbage bytes is meaningless.
  std::uint16_t rejected_batch_count() const {
    return poisoned_ && header_done_ && type_ == FrameType::kBatch ? count_
                                                                   : 0;
  }

 private:
  ParseStatus Poison(std::uint16_t code, const std::string& message);
  ParseStatus ValidateHeader();
  ParseStatus FinishFrame(ParsedFrame* out);

  std::size_t max_batch_;
  // Fixed-size header accumulator; the payload+checksum accumulator is
  // reserved to the validated frame size only after ValidateHeader.
  std::uint8_t header_[kFrameHeaderBytes] = {};
  std::size_t have_ = 0;
  bool header_done_ = false;
  std::vector<std::uint8_t> body_;  // payload + trailing checksum
  std::size_t body_need_ = 0;
  // Parsed header fields (valid once header_done_).
  FrameType type_ = FrameType::kBatch;
  std::uint16_t count_ = 0;
  std::uint32_t payload_len_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t frames_ = 0;
  bool poisoned_ = false;
  std::uint16_t error_code_ = 0;
  std::string error_;
};

}  // namespace clic::server::net
