// Load generator for the wire workloads: one thread drives a few
// nonblocking loopback connections to a NetServer, encoding frames with
// AppendBatchFrame and reading status replies through FrameParser.
//
// Open loop: frame k is due at t0 + k * batch / rate and is sent on
// connection k % connections whether or not earlier frames were
// answered, so a server stall delays every frame behind it. Latency is
// timed from the due time, not from the send, which counts that wait
// (the "coordinated omission" correction). Closed loop: each connection
// keeps a fixed number of frames outstanding, and the reply rate is the
// saturation throughput.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/trace.h"
#include "server/net/wire_format.h"
#include "spans.h"

namespace clic_bench {

/// What one generator segment saw. Every frame sent is answered by a
/// status reply or counted lost with its connection.
struct SegmentStats {
  double seconds = 0.0;                // scheduling window length
  std::uint64_t frames = 0;            // frames sent
  std::uint64_t replies = 0;           // status replies received
  std::uint64_t lost = 0;              // frames whose connection died
  std::uint64_t requests = 0;          // requests in the frames sent
  std::uint64_t failed_requests = 0;   // non-applied replies + lost frames
  std::uint64_t window_requests = 0;   // applied, replied before the end
  std::uint64_t backlog = 0;           // frames outstanding at the end
  std::vector<double> latency_us;      // per answered frame, due -> reply
  std::vector<double> late_us;         // per frame, due -> encoded
  std::string error;                   // protocol or transport failure
};

/// One nonblocking connection replaying a contiguous chunk of a trace
/// in fixed-size batches, wrapping around at its end.
class WireConn {
 public:
  WireConn(const clic::Request* reqs, std::size_t count, std::size_t batch);
  ~WireConn() { Close(); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool Connect(std::uint16_t port, std::string* error);
  void Close();
  std::size_t inflight() const { return inflight_.size(); }
  bool alive() const { return fd_ >= 0; }

 private:
  friend class WireLoad;
  struct Pending {
    std::int64_t due_ns;
    std::uint64_t seq;
    std::uint64_t end_offset;  // stream offset just past the frame
    std::int32_t span;
    std::uint32_t n;
  };

  int fd_ = -1;
  const clic::Request* reqs_;
  std::size_t count_;
  std::size_t batch_;
  std::size_t pos_ = 0;
  std::uint64_t seq_ = 0;
  std::string out_;             // encoded, not yet written
  std::size_t out_off_ = 0;     // bytes of out_ already written
  std::uint64_t written_ = 0;   // stream bytes written so far
  std::uint64_t encoded_ = 0;   // stream bytes encoded so far
  std::deque<Pending> inflight_;
  std::size_t unsent_ = 0;      // inflight_ entries not fully written
  clic::server::net::FrameParser parser_;
  clic::server::net::ParsedFrame reply_;
};

class WireLoad {
 public:
  /// `conns` must outlive the load; spans go to `tracer` when it is on.
  WireLoad(std::vector<WireConn*> conns, Tracer* tracer)
      : conns_(std::move(conns)), tracer_(tracer) {}

  /// Open loop at `rate_rps` requests per second for `seconds`, then
  /// waits for every outstanding reply.
  SegmentStats OpenLoop(double rate_rps, std::size_t batch, double seconds);
  /// Closed loop, `depth` frames outstanding per connection.
  SegmentStats ClosedLoop(std::size_t depth, double seconds);

 private:
  enum class Mode { kOpen, kClosed };
  SegmentStats Run(Mode mode, double interval_ns, std::size_t depth,
                   double seconds);
  void Send(WireConn& c, std::int64_t due_ns, std::int64_t now_ns,
            SegmentStats* st);
  void Flush(WireConn& c, SegmentStats* st);
  void Receive(WireConn& c, std::int64_t stop_ns, SegmentStats* st);
  void Lose(WireConn& c, SegmentStats* st, const std::string& why);

  std::vector<WireConn*> conns_;
  Tracer* tracer_;
};

}  // namespace clic_bench
