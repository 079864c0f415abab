// Blocking wire client for the network front end: connects to a
// NetServer (or anything speaking server/net/wire_format.h), sends
// batch frames, and reassembles status replies through the same
// incremental FrameParser the server uses — so torn writes and partial
// reads on either side are handled by construction, not by luck.
//
// RunWireLoad() is the wire twin of server::ServeTrace: the same
// chunking rule (ClientChunk over the budget-capped trace, batched on
// the same fixed grid) and the same driver shape — each client keeps up
// to CacheServer::kPipelineDepth frames in flight on its connection,
// receives the oldest reply once all are out, and collects the rest at
// the end. Clients run sequentially in client order (deterministic mode,
// ServeTrace's determinism rule over the wire: each connection is
// answered in full before the next connects) or one thread each. Every
// reply code is tallied into the same AdmissionStats ledger the server
// keeps, and per-frame wire latencies (send to status) feed p50/p99.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"
#include "server/ledger.h"
#include "server/net/wire_format.h"

namespace clic::server::net {

/// One blocking connection. Not thread-safe: each connection belongs to
/// one driver thread, mirroring the server's one-producer-per-port
/// contract.
class WireClient {
 public:
  WireClient() : parser_(kWireMaxBatch) {}
  ~WireClient() { Close(); }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to addr:port (dotted-quad IPv4). Returns false and fills
  /// error() on failure.
  bool Connect(const std::string& addr, std::uint16_t port);

  /// Sends one batch frame without waiting for its reply. Returns false
  /// on transport failure, with the connection closed and error() set.
  bool Send(const Request* reqs, std::size_t n);

  /// Blocks for the reply to the oldest frame sent and not yet answered
  /// (call it only while one is) and returns its wire code
  /// (kWireApplied..kWireStopped). An error frame's code (>= 16) comes
  /// back with the connection closed, as the server closes after one.
  /// Returns kWireConnClosed, with the connection closed and error()
  /// set, on transport failure: a reset, EOF before the reply, a
  /// malformed frame, a status whose seq is not the oldest unanswered
  /// frame's ("reply out of order"), or bytes past the reply to the
  /// last frame sent ("unexpected extra frame after reply"). Bytes of
  /// later replies that arrive early are kept for the next call.
  std::uint16_t Receive();

  /// One frame, one reply: Send then Receive.
  std::uint16_t Call(const Request* reqs, std::size_t n) {
    return Send(reqs, n) ? Receive() : kWireConnClosed;
  }

  void Close();
  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// Sentinel for "the transport died" (distinct from every WireCode
  /// a frame can carry).
  static constexpr std::uint16_t kWireConnClosed = 0xFFFF;

 private:
  /// Closes the connection with `why` in error(); returns kWireConnClosed.
  std::uint16_t Fail(std::string why);

  int fd_ = -1;
  std::uint64_t sent_ = 0;      // seq of the last frame sent (1-based)
  std::uint64_t answered_ = 0;  // seq of the last frame answered
  std::string out_;             // encode scratch, reused per frame
  std::uint8_t in_[4096] = {};  // read buffer; [in_pos_, in_len_) unparsed
  std::size_t in_pos_ = 0;
  std::size_t in_len_ = 0;
  FrameParser parser_;
  ParsedFrame reply_;
  std::string error_;
};

struct WireLoadOptions {
  std::string addr = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 1;
  std::size_t batch_size = 64;
  /// Drive client connections one after another in client id order:
  /// what makes a run bit-identical to PartitionedSimulate, at any
  /// server topology.
  bool deterministic = false;
};

/// Wire-side ledger: what the status replies said happened, with
/// conn_lost counting batches whose reply never arrived because the
/// transport died (e.g. under net:reset). enqueued stays 0: a reply
/// carries the final outcome. Balanced() must hold on every run.
struct WireLoadResult : AdmissionStats {
  /// Typed error frames received (connection then closed by server).
  std::uint64_t wire_errors = 0;
  /// Applied requests per second and the per-frame send-to-status wire
  /// latency.
  DriverTiming timing;
};

/// Replays `trace` over the wire against addr:port. Rejected batches
/// are skipped exactly as ServeTrace's drivers skip them. On a transport
/// loss every unanswered frame counts as conn_lost and the driver
/// reconnects; a typed error frame loses its own frame and every frame
/// behind it; a failed reconnect loses the rest of the chunk. Throws
/// std::invalid_argument for zero clients or batch_size, or a batch_size
/// above kWireMaxBatch (a frame's u16 count cannot carry it).
WireLoadResult RunWireLoad(const Trace& trace, const WireLoadOptions& options);

}  // namespace clic::server::net
