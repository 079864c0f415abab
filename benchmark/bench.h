// Shared pieces of clic_bench: the workload table, the fixed serving
// topology every wire measurement uses, the result report, and the
// policy wrapper that times AccessBatch blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/clic.h"
#include "core/policy.h"
#include "core/trace.h"
#include "server/net/net_server.h"
#include "spans.h"

namespace clic_bench {

// Fixed topology: one busy thread per core on a 4-core machine. The
// server runs one io thread and two consumers over four shards; the
// load is one generator thread with two connections.
inline constexpr std::size_t kCachePages = 12'000;
inline constexpr std::size_t kShards = 4;
inline constexpr unsigned kConsumers = 2;
inline constexpr unsigned kIoThreads = 1;
inline constexpr std::size_t kConnections = 2;
/// Frames outstanding per connection in the closed-loop probes.
inline constexpr std::size_t kSatDepth = 8;
/// Batch size the replay workloads use for their server and wire rungs.
inline constexpr std::size_t kReplayServeBatch = 64;

struct Workload {
  const char* name;
  const char* spec;  // scenario spec; the run appends ",seed=N"
  bool wire;         // served over loopback (else replayed by Simulate)
  bool adaptive;     // CLIC adaptive_window
  std::size_t batch;  // requests per wire frame / server batch
  /// Open-loop offered load, frozen from a calibration run (about a
  /// quarter of the measured saturation throughput). 0 for replay.
  double rate_rps;
  /// read_hit_ratio at seed 1; runs at seed 1 must match it exactly.
  double pinned_hit_ratio;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

clic::ClicOptions ClicOptionsFor(const Workload& w);
/// Server options for the fixed topology; `deterministic` gives the
/// single-consumer, client-ordered mode the verify pass needs.
clic::server::net::NetServerOptions ServingOptions(const Workload& w,
                                                   bool deterministic);
/// Requests per frame on the server and wire paths.
inline std::size_t ServeBatch(const Workload& w) {
  return w.wire ? w.batch : kReplayServeBatch;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

/// Everything a run reports: metrics, validity numbers that are not
/// metrics, and the failed correctness gates.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;  // requests sent or replayed
  std::uint64_t failed = 0;     // requests not applied

  void Add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void Info(const std::string& name, double value) {
    info.emplace_back(name, value);
  }
  void Fail(const std::string& why) { errors.push_back(why); }
};

/// Forwards to a policy and times every AccessBatch call: the duration
/// goes to `block_us` and, when `tracer` is on, a span under `parent`
/// whose aux field counts the CLIC windows the call closed.
class TimedPolicy final : public clic::Policy {
 public:
  TimedPolicy(clic::Policy& inner, std::vector<double>* block_us,
              Tracer* tracer, std::int32_t parent)
      : inner_(inner),
        clic_(dynamic_cast<clic::ClicPolicy*>(&inner)),
        block_us_(block_us),
        tracer_(tracer),
        parent_(parent) {}

  bool Access(const clic::Request& r, clic::SeqNum seq) override {
    return inner_.Access(r, seq);
  }
  void AccessBatch(const clic::Request* reqs, clic::SeqNum first_seq,
                   std::size_t n, std::uint8_t* hits_out) override {
    const std::uint64_t windows = clic_ ? clic_->windows_completed() : 0;
    const std::int64_t start = NowNs();
    inner_.AccessBatch(reqs, first_seq, n, hits_out);
    const std::int64_t end = NowNs();
    if (block_us_) block_us_->push_back(static_cast<double>(end - start) / 1e3);
    if (tracer_) {
      const std::uint64_t closed =
          clic_ ? clic_->windows_completed() - windows : 0;
      tracer_->Add(kAccessBatch, start, end, parent_, first_seq,
                   static_cast<std::uint32_t>(n),
                   static_cast<std::uint32_t>(closed));
    }
  }

 private:
  clic::Policy& inner_;
  clic::ClicPolicy* clic_;
  std::vector<double>* block_us_;
  Tracer* tracer_;
  std::int32_t parent_;
};

/// The traced run: prices each layer on the workload's own trace and
/// adds the per-layer metrics to `report`.
void RunLadder(const Workload& w, const clic::Trace& trace, double seconds,
               Tracer* tracer, Report* report);

}  // namespace clic_bench
