// The admission ledger: what happened to every submitted batch, counted
// in batches and in requests. One value type serves the cache server
// (per client and in total), the wire client's reply tally, and every
// check of the identity — Balanced() is the only place it is written.
// The load drivers' timing rule lives here too, for the same reason:
// ServeTrace and RunWireLoad report throughput and p50/p99 through it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace clic::server {

/// What Submit/Begin/Await did with a batch.
enum class SubmitResult : std::uint8_t {
  kApplied,   // every request was applied
  kEnqueued,  // Begin: admitted; Await returns the final outcome
  kShed,      // rejected at admission (shed: fault)
  kExpired,   // admitted, but its service deadline passed before drain
  kStopped,   // Stop() aborted it (at admission, or queued unstarted)
};

/// Exact admission accounting. On the server
///   submitted == enqueued + shed + stopped_at_admission
///   enqueued  == applied + expired + stopped_in_queue
/// so submitted == applied + shed + expired + stopped, batch- and
/// request-granular, with nothing counted twice or lost. The wire
/// client adds conn_lost (batches whose reply never arrived because the
/// transport died); the server never counts it. A batch whose shard
/// runs straddle several consumers has one outcome, decided by the
/// first of its slices to be popped, and every slice follows it: the
/// batch is applied on all of its shards or on none. So the shards'
/// requests_applied() equals applied_requests exactly.
struct AdmissionStats {
  std::uint64_t submitted_batches = 0, submitted_requests = 0;
  std::uint64_t enqueued_batches = 0, enqueued_requests = 0;
  std::uint64_t applied_batches = 0, applied_requests = 0;
  std::uint64_t shed_batches = 0, shed_requests = 0;
  std::uint64_t expired_batches = 0, expired_requests = 0;
  std::uint64_t stopped_batches = 0, stopped_requests = 0;
  std::uint64_t conn_lost_batches = 0, conn_lost_requests = 0;

  /// Counts one batch of `requests` requests under `outcome`.
  void Add(SubmitResult outcome, std::uint64_t requests) {
    switch (outcome) {
      case SubmitResult::kApplied:
        ++applied_batches;
        applied_requests += requests;
        break;
      case SubmitResult::kEnqueued:
        ++enqueued_batches;
        enqueued_requests += requests;
        break;
      case SubmitResult::kShed:
        ++shed_batches;
        shed_requests += requests;
        break;
      case SubmitResult::kExpired:
        ++expired_batches;
        expired_requests += requests;
        break;
      case SubmitResult::kStopped:
        ++stopped_batches;
        stopped_requests += requests;
        break;
    }
  }

  AdmissionStats& operator+=(const AdmissionStats& o) {
    submitted_batches += o.submitted_batches;
    submitted_requests += o.submitted_requests;
    enqueued_batches += o.enqueued_batches;
    enqueued_requests += o.enqueued_requests;
    applied_batches += o.applied_batches;
    applied_requests += o.applied_requests;
    shed_batches += o.shed_batches;
    shed_requests += o.shed_requests;
    expired_batches += o.expired_batches;
    expired_requests += o.expired_requests;
    stopped_batches += o.stopped_batches;
    stopped_requests += o.stopped_requests;
    conn_lost_batches += o.conn_lost_batches;
    conn_lost_requests += o.conn_lost_requests;
    return *this;
  }

  /// The ledger identity, in batches and in requests: every submitted
  /// batch ended in exactly one outcome.
  bool Balanced() const {
    return submitted_batches == applied_batches + shed_batches +
                                    expired_batches + stopped_batches +
                                    conn_lost_batches &&
           submitted_requests == applied_requests + shed_requests +
                                     expired_requests + stopped_requests +
                                     conn_lost_requests;
  }

  /// Every count as "name=batches/requests", for failure messages.
  std::string Describe() const {
    const auto count = [](const char* name, std::uint64_t batches,
                          std::uint64_t requests) {
      return std::string(name) + "=" + std::to_string(batches) + "/" +
             std::to_string(requests);
    };
    return count("submitted", submitted_batches, submitted_requests) + " " +
           count("enqueued", enqueued_batches, enqueued_requests) + " " +
           count("applied", applied_batches, applied_requests) + " " +
           count("shed", shed_batches, shed_requests) + " " +
           count("expired", expired_batches, expired_requests) + " " +
           count("stopped", stopped_batches, stopped_requests) + " " +
           count("conn_lost", conn_lost_batches, conn_lost_requests) +
           " (batches/requests)";
  }
};

/// The q-quantile (0 <= q <= 1) of `samples`: the element at rank
/// floor(q * (n - 1)) in sorted order, 0 when there are none. Reorders
/// `samples`.
inline double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  const auto at = samples->begin() + static_cast<std::ptrdiff_t>(
                                         q * static_cast<double>(
                                                 samples->size() - 1));
  std::nth_element(samples->begin(), at, samples->end());
  return *at;
}

/// What a load driver measured over a run.
struct DriverTiming {
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  // applied requests / wall_seconds
  double p50_us = 0.0;          // batch latency percentiles
  double p99_us = 0.0;
};

/// The one timing rule of the load drivers: `applied` requests over
/// `wall_seconds`, and the p50/p99 of `latencies_us` (reordered).
inline DriverTiming TimeRun(std::uint64_t applied, double wall_seconds,
                            std::vector<double>* latencies_us) {
  DriverTiming timing;
  timing.wall_seconds = wall_seconds;
  timing.throughput_rps =
      wall_seconds > 0.0 ? static_cast<double>(applied) / wall_seconds : 0.0;
  timing.p50_us = Percentile(latencies_us, 0.50);
  timing.p99_us = Percentile(latencies_us, 0.99);
  return timing;
}

}  // namespace clic::server
