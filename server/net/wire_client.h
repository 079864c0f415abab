// Blocking wire client for the network front end: connects to a
// NetServer (or anything speaking server/net/wire_format.h), sends
// batch frames, and reassembles status replies through the same
// incremental FrameParser the server uses — so torn writes and partial
// reads on either side are handled by construction, not by luck.
//
// RunWireLoad() is the wire twin of server::ServeTrace: the same
// client-chunking rule (client c replays [n*c/C, n*(c+1)/C) of the
// budget-capped trace, batched on the same fixed grid), driven either
// sequentially in client order (deterministic mode — the wire replay of
// the strict-client-order stream the deterministic consumer expects) or
// from one thread per client. Every reply code is tallied into a
// wire-side ledger mirroring AdmissionStats, and per-call wire
// latencies (send-to-status) feed p50/p99.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"
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

  /// Sends one batch frame and blocks for its status reply. Returns the
  /// wire code (kWireApplied..kWireStopped, or an error code >= 16 from
  /// an error frame). Returns kWireConnClosed on transport failure —
  /// connection reset, EOF mid-reply, a malformed reply frame, or bytes
  /// beyond the one reply in the same read ("unexpected extra frame
  /// after reply"); in all those cases the connection is closed and
  /// error() explains.
  std::uint16_t Call(const Request* reqs, std::size_t n);

  void Close();
  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// Sentinel for "the transport died" (distinct from every WireCode
  /// a frame can carry).
  static constexpr std::uint16_t kWireConnClosed = 0xFFFF;

 private:
  int fd_ = -1;
  std::uint64_t seq_ = 0;  // 1-based frame sequence on this connection
  std::string out_;        // encode scratch, reused per call
  FrameParser parser_;
  ParsedFrame reply_;
  std::string error_;
};

struct WireLoadOptions {
  std::string addr = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 1;
  std::size_t batch_size = 64;
  /// Caps how much of the trace is replayed (0 = all), with ServeTrace's
  /// chunking rule — concatenating the chunks in client order yields the
  /// capped trace.
  std::uint64_t request_budget = 0;
  /// Drive client connections one after another in client id order
  /// (required for a bit-identical verify against PartitionedSimulate).
  bool deterministic = false;
};

/// Wire-side ledger: what the status replies said happened. With a
/// healthy server, submitted == applied + shed + timed_out + expired +
/// stopped + conn_lost (conn_lost counts batches whose reply never
/// arrived because the transport died — e.g. under net:reset).
struct WireLoadResult {
  std::uint64_t submitted_batches = 0, submitted_requests = 0;
  std::uint64_t applied_batches = 0, applied_requests = 0;
  std::uint64_t shed_batches = 0, shed_requests = 0;
  std::uint64_t timed_out_batches = 0, timed_out_requests = 0;
  std::uint64_t expired_batches = 0, expired_requests = 0;
  std::uint64_t stopped_batches = 0, stopped_requests = 0;
  std::uint64_t conn_lost_batches = 0, conn_lost_requests = 0;
  /// Typed error frames received (connection then closed by server).
  std::uint64_t wire_errors = 0;
  /// Connections opened (reconnects after a transport loss included).
  std::uint64_t connections = 0;
  std::uint64_t failed_connects = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  // applied requests / wall
  double p50_us = 0.0;          // per-batch send-to-status wire latency
  double p99_us = 0.0;
};

/// Replays `trace` over the wire against addr:port. Drivers reconnect
/// once after a transport loss (counting the unanswered batch as
/// conn_lost) and skip rejected batches exactly as ServeTrace's drivers
/// do. Throws std::invalid_argument for zero clients/batch_size.
WireLoadResult RunWireLoad(const Trace& trace, const WireLoadOptions& options);

}  // namespace clic::server::net
