// In-memory span recorder for the traced benchmark run. A span is one
// timed call into a layer (a Simulate replay, one AccessBatch block, one
// Submit, one wire frame from its due time to its reply), with the
// span that caused it and a request id. Spans are appended to a
// pre-reserved vector, so recording allocates nothing, and are written
// out once, at exit, as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace clic_bench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times, named by module.
enum SpanName : std::uint8_t {
  kSimulate,      // sim: one Simulate() replay
  kAccessBatch,   // core: one Policy::AccessBatch block inside Simulate
  kShardAccess,   // core: AccessBatch over one shard part at B/S
  kRoute,         // server: ShardOf over a pass of batches
  kSubmit,        // server: one closed-loop CacheServer::Submit
  kEncode,        // net: AppendBatchFrame over a pass of batches
  kParse,         // net: FrameParser::Consume over a pass of frames
  kCall,          // net: one WireClient::Call
  kFrame,         // gen: one frame, from its due time to its reply
  kFrameEncode,   // gen: encoding that frame
  kFrameSend,     // gen: the write() that finished sending it
  kSpanNameCount,
};

const char* SpanNameText(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // first trace index of the batch, or frame seq
  std::int32_t parent = -1;  // index of the causing span; -1 for a root
  std::uint32_t n = 0;       // requests the span covers
  std::uint32_t aux = 0;     // AccessBatch: CLIC windows closed inside
  SpanName name = kSimulate;
};

class Tracer {
 public:
  /// A disabled tracer: Add() records nothing and returns -1.
  Tracer() = default;
  /// Records up to `capacity` spans; later ones are counted as dropped.
  explicit Tracer(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  bool on() const { return capacity_ > 0; }
  bool full() const { return spans_.size() >= capacity_; }

  /// Appends a span and returns its index (-1 when off or full). A span
  /// still open passes end_ns == 0 and is finished by Close().
  std::int32_t Add(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t id, std::uint32_t n,
                   std::uint32_t aux = 0) {
    if (!on()) return -1;
    if (full()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{start_ns, end_ns, id, parent, n, aux, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void Close(std::int32_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Self time of every span: its duration minus the part of its
  /// interval that its children cover.
  std::vector<std::int64_t> SelfNs() const;

  /// Writes the first `per_name_limit` spans of each name as Chrome
  /// trace-event JSON (chrome://tracing, Perfetto). Returns false when
  /// the file cannot be written.
  bool WriteChromeJson(const std::string& path,
                       std::size_t per_name_limit) const;

 private:
  std::size_t capacity_ = 0;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
/// Reorders `values`.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);
/// The quartile of a metric's segment values on its better side: the
/// upper quartile when higher is better, else the lower. Other tenants
/// of the machine only ever slow a segment down, so the faster segments
/// are the steadier estimate of what the code costs; a quartile rather
/// than the best keeps one lucky segment from setting the value.
double BetterQuartile(std::vector<double> values, bool higher_is_better);

}  // namespace clic_bench
