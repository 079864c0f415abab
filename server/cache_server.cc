#include "server/cache_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "common/fnv1a.h"
#include "common/rng.h"

namespace clic::server {

std::size_t ShardOf(PageId page, std::size_t shards) {
  if (shards <= 1) return 0;
  Fnv1a h;
  h.MixScalar(page);
  return static_cast<std::size_t>(h.value() % shards);
}

std::size_t ShardCachePages(std::size_t total_pages, std::size_t shards) {
  return std::max<std::size_t>(1, total_pages / std::max<std::size_t>(1, shards));
}

std::vector<Trace> PartitionByShard(const Trace& trace, std::size_t shards) {
  std::vector<Trace> parts(std::max<std::size_t>(1, shards));
  for (std::size_t s = 0; s < parts.size(); ++s) {
    parts[s].name = trace.name + "#shard" + std::to_string(s);
    parts[s].hints = std::make_shared<HintRegistry>(*trace.hints);
    parts[s].client_bound = trace.client_bound;  // valid upper bound
  }
  for (const Request& r : trace.requests) {
    parts[ShardOf(r.page, parts.size())].requests.push_back(r);
  }
  return parts;
}

SimResult PartitionedSimulate(const Trace& trace, const ServerOptions& options,
                              std::uint64_t request_budget) {
  Trace capped;
  capped.name = trace.name;
  // Read-only below (PartitionByShard deep-copies per part), so the
  // alias never shares mutable interning state with a writer.
  capped.hints = trace.hints;
  capped.client_bound = trace.client_bound;  // valid upper bound
  const std::uint64_t n =
      request_budget > 0 ? std::min<std::uint64_t>(trace.size(), request_budget)
                         : trace.size();
  capped.requests.assign(trace.requests.begin(),
                         trace.requests.begin() + static_cast<long>(n));
  const std::vector<Trace> parts = PartitionByShard(capped, options.shards);
  const std::size_t pages =
      ShardCachePages(options.cache_pages, options.shards);
  SimResult merged;
  for (const Trace& part : parts) {
    const auto policy =
        MakePolicy(options.policy, pages, /*trace=*/nullptr, options.clic);
    const SimResult shard = Simulate(part, *policy);
    merged.total += shard.total;
    for (const auto& [client, stats] : shard.per_client) {
      merged.per_client[client] += stats;
    }
  }
  return merged;
}

Trace FilterShedBatches(const Trace& trace, const LoadOptions& load,
                        const fault::FaultPlan* plan,
                        std::uint64_t request_budget) {
  Trace out;
  out.name = trace.name;
  out.hints = trace.hints;  // read-only alias, like PartitionedSimulate
  out.client_bound = trace.client_bound;
  const std::uint64_t n =
      request_budget > 0 ? std::min<std::uint64_t>(trace.size(), request_budget)
                         : trace.size();
  const std::uint64_t every = plan != nullptr ? plan->shed_every : 0;
  out.requests.reserve(static_cast<std::size_t>(n));
  const std::uint64_t clients = std::max<std::size_t>(1, load.clients);
  const std::uint64_t batch = std::max<std::size_t>(1, load.batch_size);
  // Mirrors ServeTrace's driver loop exactly: contiguous per-client
  // chunks, fixed batch grid, 1-based per-client submit index.
  for (std::uint64_t c = 0; c < clients; ++c) {
    const std::uint64_t begin = n * c / clients;
    const std::uint64_t end = n * (c + 1) / clients;
    std::uint64_t index = 0;
    for (std::uint64_t pos = begin; pos < end; pos += batch) {
      ++index;
      if (every > 0 && index % every == 0) continue;
      const std::uint64_t count = std::min<std::uint64_t>(batch, end - pos);
      out.requests.insert(
          out.requests.end(), trace.requests.begin() + static_cast<long>(pos),
          trace.requests.begin() + static_cast<long>(pos + count));
    }
  }
  return out;
}

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CacheServer::CacheServer(const ServerOptions& options, std::size_t num_clients)
    : pages_per_shard_(ShardCachePages(options.cache_pages, options.shards)),
      deterministic_(options.deterministic),
      batch_deadline_ms_(options.batch_deadline_ms),
      watchdog_ms_(options.watchdog_ms),
      hint_bound_(options.hint_bound),
      fault_(options.fault) {
  if (options.shards == 0) {
    throw std::invalid_argument("CacheServer: shards must be >= 1");
  }
  if (num_clients == 0) {
    throw std::invalid_argument("CacheServer: need at least one client");
  }
  if (options.policy == PolicyKind::kOpt) {
    throw std::invalid_argument(
        "CacheServer: OPT is clairvoyant and cannot serve an online "
        "request stream");
  }
  if (options.consumers > options.shards) {
    throw std::invalid_argument(
        "CacheServer: consumers=" + std::to_string(options.consumers) +
        " exceeds shards=" + std::to_string(options.shards) +
        " — a consumer owning zero shards would idle forever");
  }
  if (deterministic_ && options.consumers > 1) {
    throw std::invalid_argument(
        "CacheServer: deterministic mode runs exactly one consumer, got "
        "consumers=" + std::to_string(options.consumers));
  }
  if (fault_ != nullptr) {
    if (fault_->HasCorruption() && hint_bound_ == 0) {
      throw std::invalid_argument(
          "CacheServer: hint corruption injection requires the hint-sanity "
          "guard (hint_bound > 0) — an unguarded corrupted hint id could "
          "force a gigantic per-hint allocation");
    }
    for (const fault::ShardStall& s : fault_->stalls) {
      if (s.shard >= options.shards) {
        throw std::invalid_argument(
            "CacheServer: fault plan stalls shard " +
            std::to_string(s.shard) + " but the server has only " +
            std::to_string(options.shards) + " shard(s)");
      }
    }
  }
  shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // No consumer thread exists yet; the constructing thread is the
    // owner of every shard it builds.
    shard->ownership.AssertHeld();
    shard->policy = MakePolicy(options.policy, pages_per_shard_,
                               /*trace=*/nullptr, options.clic);
    shards_.push_back(std::move(shard));
  }
  // Ownership topology: a static disjoint partition of shards over
  // consumers, fixed for the server's lifetime — the serialization the
  // shard mutex used to provide.
  unsigned workers = 1;
  if (deterministic_) {
    workers = 1;
  } else if (options.consumers > 0) {
    workers = options.consumers;
  } else {
    workers = static_cast<unsigned>(std::min<std::size_t>(
        shards_.size(), std::max(1u, std::thread::hardware_concurrency())));
  }
  // Stripe: neighbouring shards land on different cores.
  owner_of_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    owner_of_[s] = static_cast<std::uint32_t>(s % workers);
  }
  consumers_.reserve(workers);
  for (unsigned k = 0; k < workers; ++k) {
    consumers_.push_back(std::make_unique<Consumer>());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    consumers_[owner_of_[s]]->owned.push_back(s);
  }
  ports_.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    auto port = std::make_unique<ClientPort>();
    port->rings.reserve(workers);
    for (unsigned k = 0; k < workers; ++k) {
      port->rings.push_back(
          std::make_unique<SpscRing<Batch*>>(kPipelineDepth));
    }
    ports_.push_back(std::move(port));
  }
  // Everything above must be in place before the first consumer runs.
  threads_.reserve(workers);
  for (unsigned k = 0; k < workers; ++k) {
    if (deterministic_) {
      threads_.emplace_back([this] { ConsumeInClientOrder(); });
    } else {
      threads_.emplace_back([this, k] { ConsumeOwned(k); });
    }
  }
}

CacheServer::~CacheServer() { Shutdown(); }

void CacheServer::RouteBatch(ClientPort& port, Batch* batch,
                             const Request* requests, std::size_t n) {
  const std::size_t S = shards_.size();
  const Request* src = requests;
  bool mutated = false;
  // Corruption injection, applied over the ORIGINAL batch order with a
  // per-batch (plan seed, client, submit index) RNG, so the same flips
  // land on the same requests no matter how drains interleave — replay
  // stays bit-identical. Flips touch hint_set only, never the page, so
  // shard routing below is unaffected.
  if (fault_ != nullptr && fault_->corrupt_every > 0 &&
      batch->submit_index % fault_->corrupt_every == 0) {
    port.staging.assign(requests, requests + n);
    Fnv1a mix;
    mix.MixScalar(fault_->seed);
    mix.MixScalar(batch->client);
    mix.MixScalar(batch->submit_index);
    Rng rng(mix.value());
    for (std::uint32_t f = 0; f < fault_->corrupt_flips; ++f) {
      Request& victim = port.staging[rng.Below(n)];
      victim.hint_set ^= 1u << rng.Below(32);
    }
    src = port.staging.data();
    mutated = true;
  }
  // Hint-sanity quarantine: remap out-of-range hint ids to the reserved
  // untrusted bucket before the batch reaches any policy. The policy
  // sees a well-formed hint set whose priority reflects the untrusted
  // traffic's own behaviour; within its rank bucket eviction is LRU.
  batch->has_quarantine = false;
  if (hint_bound_ > 0) {
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
      bad += src[i].hint_set >= hint_bound_ ? 1 : 0;
    }
    if (bad > 0) {
      if (!mutated) {
        port.staging.assign(src, src + n);
        src = port.staging.data();
        mutated = true;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (port.staging[i].hint_set >= hint_bound_) {
          port.staging[i].hint_set = hint_bound_;
        }
      }
      batch->has_quarantine = true;
    }
  }
  batch->runs.clear();
  if (S == 1) {
    if (mutated) {
      batch->routed.assign(src, src + n);
      batch->reqs = batch->routed.data();
    } else {
      // The caller's buffer outlives the Await, so a single-shard
      // unmutated batch is served zero-copy.
      batch->reqs = src;
    }
    batch->runs.push_back({0, 0, static_cast<std::uint32_t>(n)});
    return;
  }
  // Stable counting sort into shard-ascending runs: ShardOf exactly
  // once per request, here and nowhere else on the serving path.
  auto& ids = port.shard_ids;
  auto& off = port.run_offset;
  ids.resize(n);
  off.assign(S, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s =
        static_cast<std::uint32_t>(ShardOf(src[i].page, S));
    ids[i] = s;
    ++off[s];
  }
  batch->routed.resize(n);
  std::uint32_t total = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const std::uint32_t count = off[s];
    off[s] = total;
    if (count > 0) {
      batch->runs.push_back({static_cast<std::uint32_t>(s), total, count});
    }
    total += count;
  }
  for (std::size_t i = 0; i < n; ++i) {
    batch->routed[off[ids[i]]++] = src[i];
  }
  batch->reqs = batch->routed.data();
}

bool CacheServer::TouchesStalledShard(const Batch& batch,
                                      std::int64_t now_ns) const {
  const std::int64_t limit_ns = static_cast<std::int64_t>(watchdog_ms_ * 1e6);
  // O(runs), using the shard ids computed at routing — no page rescan.
  for (const ShardRun& run : batch.runs) {
    const std::int64_t busy =
        shards_[run.shard]->busy_since_ns.load(std::memory_order_relaxed);
    if (busy != 0 && now_ns - busy > limit_ns) return true;
  }
  return false;
}

SubmitResult CacheServer::Admit(ClientPort& port, Batch* batch,
                                const Request* requests, std::size_t n) {
  port.adm.submitted_batches += 1;
  port.adm.submitted_requests += n;
  batch->n = n;
  batch->submit_index = ++port.submit_counter;
  if (stop_.load(std::memory_order_acquire)) {
    port.adm.Add(SubmitResult::kStopped, n);
    return SubmitResult::kStopped;
  }
  // Deterministic overload injection: a pure function of (client,
  // submit index), so a verify run can reconstruct the shed set.
  if (fault_ != nullptr && fault_->shed_every > 0 &&
      batch->submit_index % fault_->shed_every == 0) {
    port.adm.Add(SubmitResult::kShed, n);
    return SubmitResult::kShed;
  }
  RouteBatch(port, batch, requests, n);
  // Watchdog: shed traffic aimed at a shard whose in-flight drain has
  // been running past the threshold.
  if (watchdog_ms_ > 0.0 && TouchesStalledShard(*batch, NowNs())) {
    port.adm.Add(SubmitResult::kShed, n);
    watchdog_sheds_.fetch_add(1, std::memory_order_relaxed);
    return SubmitResult::kShed;
  }
  // The batch's slices go to the consumers owning its runs' shards.
  port.targets.clear();
  for (const ShardRun& run : batch->runs) {
    const std::size_t owner = owner_of_[run.shard];
    bool seen = false;
    for (std::size_t t : port.targets) {
      if (t == owner) { seen = true; break; }
    }
    if (!seen) port.targets.push_back(owner);
  }
  batch->deadline = Clock::time_point{};
  if (batch_deadline_ms_ > 0.0) {
    batch->deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               batch_deadline_ms_));
  }
  batch->pending.store(static_cast<std::uint32_t>(port.targets.size()),
                       std::memory_order_relaxed);
  batch->fail_bits.store(0, std::memory_order_relaxed);
  batch->done.store(false, std::memory_order_relaxed);
  batch->waiting.store(false, std::memory_order_relaxed);
  batch->result = SubmitResult::kApplied;
  // Push phase, guarded by the submitting flag: Stop()'s final drain
  // spins this flag out after raising stop_, so either we observe stop_
  // here (and nothing is pushed) or every push below lands before the
  // drain pass runs.
  port.submitting.store(true, std::memory_order_seq_cst);
  if (stop_.load(std::memory_order_seq_cst)) {
    port.submitting.store(false, std::memory_order_release);
    port.adm.Add(SubmitResult::kStopped, n);
    return SubmitResult::kStopped;
  }
  port.adm.Add(SubmitResult::kEnqueued, n);
  for (std::size_t t : port.targets) {
    const bool pushed = port.rings[t]->TryPush(batch);
    // Each of the client's kPipelineDepth slots sits in a ring at most
    // once until it is awaited, and every ring has kPipelineDepth
    // slots, so this cannot fail.
    assert(pushed);
    if (!pushed) std::abort();
  }
  port.submitting.store(false, std::memory_order_release);
  for (std::size_t t : port.targets) WakeConsumer(t);
  return SubmitResult::kEnqueued;
}

SubmitResult CacheServer::WaitDone(ClientPort& port, Batch& batch) {
  // Spin briefly (with yields so a 1-core box schedules the consumer),
  // then park on the control path.
  for (int spin = 0; spin < 1024; ++spin) {
    if (batch.done.load(std::memory_order_acquire)) return batch.result;
    if (spin >= 64) std::this_thread::yield();
  }
  // clic-lint: begin-allow(no-mutex-data-path) reason=post-spin completion parking; reached only after the 1024-iteration spin failed
  std::unique_lock<std::mutex> lock(port.mu.native());
  // clic-lint: end-allow(no-mutex-data-path)
  batch.waiting.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  port.done_cv.wait(lock, [&batch] {
    return batch.done.load(std::memory_order_acquire);
  });
  batch.waiting.store(false, std::memory_order_relaxed);
  return batch.result;
}

SubmitResult CacheServer::Submit(std::size_t client, const Request* requests,
                                 std::size_t n) {
  const SubmitResult admitted = Begin(client, 0, requests, n);
  if (admitted != SubmitResult::kEnqueued) return admitted;
  return Await(client, 0);
}

SubmitResult CacheServer::Begin(std::size_t client, std::size_t slot,
                                const Request* requests, std::size_t n) {
  if (n == 0) return SubmitResult::kApplied;
  ClientPort& port = *ports_.at(client);
  Batch& batch = port.slots.at(slot);
  batch.client = static_cast<ClientId>(client);
  // By the threading contract this thread IS the client's one producer.
  port.producer.Acquire();
  const SubmitResult admitted = Admit(port, &batch, requests, n);
  port.producer.Release();
  return admitted;
}

SubmitResult CacheServer::Await(std::size_t client, std::size_t slot) {
  ClientPort& port = *ports_.at(client);
  return WaitDone(port, port.slots.at(slot));
}

void CacheServer::Finish(std::size_t client) {
  ClientPort& port = *ports_.at(client);
  port.eos.store(true, std::memory_order_release);
  for (std::size_t k = 0; k < consumers_.size(); ++k) WakeConsumer(k);
}

void CacheServer::Shutdown() {
  if (joined_) return;
  joined_ = true;
  for (std::thread& t : threads_) t.join();
}

void CacheServer::Stop() {
  stop_.store(true, std::memory_order_seq_cst);
  // clic-lint: begin-allow(no-mutex-data-path) reason=Stop() abort path; not reachable from steady-state serving
  for (auto& pp : ports_) {
    // Empty critical section: any waiter that re-checks its predicate
    // after this point holds the mutex and therefore observes stop_.
    { MutexLock lock(pp->mu); }
    pp->done_cv.notify_all();
  }
  for (auto& cp : consumers_) {
    { MutexLock lock(cp->mu); }
    cp->cv.notify_all();
  }
  // clic-lint: end-allow(no-mutex-data-path)
  Shutdown();
  // Final drain: with consumers joined, every admitted-but-unfinished
  // slice sits in exactly one ring. Quiesce any producer mid-push first
  // (the submitting flag; such a producer saw stop_ false and will
  // complete its pushes promptly), then pop and finish everything as
  // stopped, with exact accounting.
  for (auto& pp : ports_) {
    ClientPort& port = *pp;
    while (port.submitting.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    for (auto& ring : port.rings) {
      Batch* batch = nullptr;
      while (ring->TryPop(&batch)) FinishSlice(port, batch, kStoppedBit);
    }
  }
}

void CacheServer::FinishSlice(ClientPort& port, Batch* batch,
                              std::uint8_t bits) {
  if (bits != 0) batch->fail_bits.fetch_or(bits, std::memory_order_relaxed);
  if (batch->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last finisher resolves the one batch outcome.
  const std::uint8_t fb = batch->fail_bits.load(std::memory_order_relaxed);
  const SubmitResult outcome = (fb & kStoppedBit) != 0
                                   ? SubmitResult::kStopped
                                   : (fb & kExpiredBit) != 0
                                         ? SubmitResult::kExpired
                                         : SubmitResult::kApplied;
  const std::size_t n = batch->n;
  switch (outcome) {
    case SubmitResult::kApplied:
      port.applied_batches.fetch_add(1, std::memory_order_relaxed);
      port.applied_requests.fetch_add(n, std::memory_order_relaxed);
      batches_applied_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SubmitResult::kExpired:
      port.expired_batches.fetch_add(1, std::memory_order_relaxed);
      port.expired_requests.fetch_add(n, std::memory_order_relaxed);
      break;
    default:
      port.stopped_batches.fetch_add(1, std::memory_order_relaxed);
      port.stopped_requests.fetch_add(n, std::memory_order_relaxed);
      break;
  }
  batch->result = outcome;
  batch->done.store(true, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (batch->waiting.load(std::memory_order_relaxed)) {
    // clic-lint: begin-allow(no-mutex-data-path) reason=wakes a producer that already parked after its completion spin; skipped entirely unless waiting is set
    { MutexLock lock(port.mu); }
    port.done_cv.notify_all();
    // clic-lint: end-allow(no-mutex-data-path)
  }
}

void CacheServer::StallIfPlanned(Shard& shard, std::size_t shard_index) {
  for (const fault::ShardStall& s : fault_->stalls) {
    if (s.shard != shard_index) continue;
    if (shard.drains < s.after_drain ||
        shard.drains >= s.after_drain + s.drains) {
      continue;
    }
    // Sleep in 1ms slices so Stop() never waits out a long stall.
    double remaining_ms = s.ms;
    while (remaining_ms > 0.0 && !stop_.load(std::memory_order_relaxed)) {
      const double slice = std::min(remaining_ms, 1.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice));
      remaining_ms -= slice;
    }
  }
}

void CacheServer::PauseIfPlanned(std::size_t consumer_index,
                                 std::uint64_t processed) {
  for (const fault::ConsumerPause& p : fault_->pauses) {
    if (p.consumer != consumer_index) continue;
    if (processed < p.after_batch || processed >= p.after_batch + p.batches) {
      continue;
    }
    double remaining_ms = p.ms;
    while (remaining_ms > 0.0 && !stop_.load(std::memory_order_relaxed)) {
      const double slice = std::min(remaining_ms, 1.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice));
      remaining_ms -= slice;
    }
  }
}

void CacheServer::ApplySlice(std::size_t k, Consumer& me, Batch& batch) {
  // The hit buffer is (re)sized before touching any shard; AccessBatch
  // itself never allocates.
  if (me.hits.size() < batch.n) me.hits.resize(batch.n);
  std::uint8_t* const hits = me.hits.data();
  const Request* const reqs = batch.reqs;
  for (const ShardRun& run : batch.runs) {
    if (owner_of_[run.shard] != k) continue;
    Shard& shard = *shards_[run.shard];
    // This consumer owns the shard (checked one line up), so it may
    // take the ownership capability for the duration of the run.
    shard.ownership.Acquire();
#ifndef NDEBUG
    // The static ownership partition IS the serialization; this flag
    // would catch a topology bug routing one shard to two consumers.
    // acq_rel: the failing exchange must also observe the other
    // consumer's shard writes, so the assert's diagnosis is coherent.
    const bool reentered =
        shard.entered.exchange(true, std::memory_order_acq_rel);
    assert(!reentered && "two consumers inside one shard's policy");
#endif
    // Published before any injected stall so the watchdog sees the full
    // in-flight time of a wedged drain.
    shard.busy_since_ns.store(NowNs(), std::memory_order_relaxed);
    if (fault_ != nullptr && fault_->HasStalls()) {
      StallIfPlanned(shard, run.shard);
    }
    const Request* const span = reqs + run.offset;
    // One virtual dispatch per drained run — the whole reason routing
    // gathers contiguous per-shard request spans.
    shard.policy->AccessBatch(span, shard.seq, run.count, hits);
    shard.seq += run.count;
    for (std::size_t i = 0; i < run.count; ++i) {
      const Request& r = span[i];
      if (r.client >= shard.client_stats.size()) {
        shard.client_stats.resize(static_cast<std::size_t>(r.client) + 1);
      }
      shard.client_stats[r.client].Record(r, hits[i] != 0);
    }
    if (batch.has_quarantine) {
      // Only remapped requests carry the reserved id, so this recovers
      // the per-shard quarantine attribution without a second pass on
      // the trusted fast path.
      for (std::size_t i = 0; i < run.count; ++i) {
        shard.quarantined += span[i].hint_set == hint_bound_ ? 1 : 0;
      }
    }
    shard.requests += run.count;
    ++shard.drains;
    shard.busy_since_ns.store(0, std::memory_order_relaxed);
#ifndef NDEBUG
    // release: publishes this run's shard writes to whichever consumer
    // a (buggy) topology would let in next, keeping the assert honest.
    shard.entered.store(false, std::memory_order_release);
#endif
    shard.ownership.Release();
    me.requests += run.count;
  }
}

bool CacheServer::PopAndProcess(std::size_t k, Consumer& me, std::size_t c) {
  ClientPort& port = *ports_[c];
  Batch* batch = nullptr;
  if (!port.rings[k]->TryPop(&batch)) return false;
  if (fault_ != nullptr && fault_->HasPauses()) {
    PauseIfPlanned(k, me.batches_processed);
  }
  std::uint8_t bits = 0;
  if (batch->deadline != Clock::time_point{} &&
      Clock::now() > batch->deadline) {
    bits = kExpiredBit;  // stale: drop this slice, don't serve it
  } else {
    ApplySlice(k, me, *batch);
  }
  ++me.batches_processed;
  FinishSlice(port, batch, bits);
  return true;
}

void CacheServer::WakeConsumer(std::size_t k) {
  // Pairs with NapConsumer: the pushes above are visible to any
  // consumer that decides to nap after this fence, and if it napped
  // before, we see its napping flag and pay the one slow-path notify.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  Consumer& me = *consumers_[k];
  if (me.napping.load(std::memory_order_relaxed)) {
    // clic-lint: begin-allow(no-mutex-data-path) reason=wakes a napping consumer; skipped entirely unless napping is set
    { MutexLock lock(me.mu); }
    me.cv.notify_all();
    // clic-lint: end-allow(no-mutex-data-path)
  }
}

void CacheServer::NapConsumer(std::size_t k, Consumer& me) {
  me.napping.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool work = stop_.load(std::memory_order_acquire);
  if (!work) {
    for (std::size_t c = 0; c < ports_.size() && !work; ++c) {
      if (me.done_client[c]) continue;
      ClientPort& port = *ports_[c];
      work = !port.rings[k]->Empty() ||
             port.eos.load(std::memory_order_acquire);
    }
  }
  if (!work) {
    // 1ms backstop: even a lost wakeup only costs one poll interval.
    // clic-lint: begin-allow(no-mutex-data-path) reason=idle-consumer nap; reached only after the spin found every owned ring empty
    std::unique_lock<std::mutex> lock(me.mu.native());
    // clic-lint: end-allow(no-mutex-data-path)
    me.cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  me.napping.store(false, std::memory_order_relaxed);
}

void CacheServer::ConsumeOwned(std::size_t k) {
  Consumer& me = *consumers_[k];
  // This thread is consumer k's drain thread for its whole lifetime.
  me.self.Acquire();
  me.done_client.assign(ports_.size(), 0);
  std::size_t remaining = ports_.size();
  unsigned idle = 0;
  while (remaining > 0 && !stop_.load(std::memory_order_acquire)) {
    bool progress = false;
    for (std::size_t c = 0; c < ports_.size(); ++c) {
      if (me.done_client[c]) continue;
      // Re-check stop between pops: batches queued behind a stall that
      // Stop() unwound belong to the final stopped-accounting drain,
      // not to this consumer.
      while (!stop_.load(std::memory_order_acquire) &&
             PopAndProcess(k, me, c)) {
        progress = true;
      }
      ClientPort& port = *ports_[c];
      // eos is published after the client's last push, so acquiring it
      // makes any straggler visible: empty-after-eos is final.
      if (port.eos.load(std::memory_order_acquire) &&
          port.rings[k]->Empty()) {
        me.done_client[c] = 1;
        --remaining;
      }
    }
    if (progress) {
      idle = 0;
    } else if (remaining > 0) {
      // Spin briefly before the nap control path: on a busy server the
      // next push lands within the spin and no mutex is ever touched.
      if (++idle < 64) {
        std::this_thread::yield();
      } else {
        NapConsumer(k, me);
      }
    }
  }
  me.self.Release();
}

void CacheServer::ConsumeInClientOrder() {
  // Strict client order: the per-shard request sequence is then the
  // shard-filtered concatenation of client streams, which is what the
  // determinism guarantee (see header) promises.
  Consumer& me = *consumers_[0];
  // Deterministic mode runs exactly one consumer; this thread is it.
  me.self.Acquire();
  me.done_client.assign(ports_.size(), 0);
  for (std::size_t c = 0; c < ports_.size(); ++c) {
    ClientPort& port = *ports_[c];
    unsigned idle = 0;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) {
        me.self.Release();
        return;
      }
      if (PopAndProcess(0, me, c)) {
        idle = 0;
        continue;
      }
      if (port.eos.load(std::memory_order_acquire) &&
          port.rings[0]->Empty()) {
        break;
      }
      if (++idle < 64) {
        std::this_thread::yield();
        continue;
      }
      // Targeted nap: strict order means only client c (or stop) can
      // make progress, so don't scan the other rings.
      me.napping.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const bool work = stop_.load(std::memory_order_acquire) ||
                        !port.rings[0]->Empty() ||
                        port.eos.load(std::memory_order_acquire);
      if (!work) {
        // clic-lint: begin-allow(no-mutex-data-path) reason=idle nap while the strict-order client's ring is empty
        std::unique_lock<std::mutex> lock(me.mu.native());
        // clic-lint: end-allow(no-mutex-data-path)
        me.cv.wait_for(lock, std::chrono::milliseconds(1));
      }
      me.napping.store(false, std::memory_order_relaxed);
    }
    me.done_client[c] = 1;
  }
  me.self.Release();
}

CacheStats CacheServer::TotalStats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    // Quiescent read: the contract ("call after Shutdown()/Stop()")
    // means the owning consumer has joined.
    shard->ownership.AssertHeld();
    for (const CacheStats& c : shard->client_stats) total += c;
  }
  return total;
}

std::map<ClientId, CacheStats> CacheServer::PerClientStats() const {
  std::map<ClientId, CacheStats> merged;
  for (const auto& shard : shards_) {
    shard->ownership.AssertHeld();  // quiescent (post-join) read
    for (std::size_t c = 0; c < shard->client_stats.size(); ++c) {
      const CacheStats& stats = shard->client_stats[c];
      if (stats.reads + stats.writes == 0) continue;
      merged[static_cast<ClientId>(c)] += stats;
    }
  }
  return merged;
}

std::vector<CacheStats> CacheServer::PerShardStats() const {
  std::vector<CacheStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    shard->ownership.AssertHeld();  // quiescent (post-join) read
    CacheStats total;
    for (const CacheStats& c : shard->client_stats) total += c;
    out.push_back(total);
  }
  return out;
}

std::uint64_t CacheServer::requests_applied() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    shard->ownership.AssertHeld();  // quiescent (post-join) read
    total += shard->requests;
  }
  return total;
}

std::uint64_t CacheServer::batches_applied() const {
  return batches_applied_.load(std::memory_order_relaxed);
}

std::uint64_t CacheServer::shard_drains() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    shard->ownership.AssertHeld();  // quiescent (post-join) read
    total += shard->drains;
  }
  return total;
}

std::vector<std::uint64_t> CacheServer::PerConsumerRequests() const {
  std::vector<std::uint64_t> out;
  out.reserve(consumers_.size());
  for (const auto& cp : consumers_) {
    cp->self.AssertHeld();  // quiescent (post-join) read
    out.push_back(cp->requests);
  }
  return out;
}

AdmissionStats CacheServer::SnapshotAdmission(const ClientPort& port) const {
  // Producer-side fields are plain (single producer per client) and the
  // completion counters are atomics; quiescent reads — call after
  // Shutdown()/Stop(), whose joins give the happens-before.
  port.producer.AssertHeld();
  AdmissionStats s = port.adm;
  s.applied_batches = port.applied_batches.load(std::memory_order_relaxed);
  s.applied_requests = port.applied_requests.load(std::memory_order_relaxed);
  s.expired_batches = port.expired_batches.load(std::memory_order_relaxed);
  s.expired_requests = port.expired_requests.load(std::memory_order_relaxed);
  s.stopped_batches += port.stopped_batches.load(std::memory_order_relaxed);
  s.stopped_requests += port.stopped_requests.load(std::memory_order_relaxed);
  return s;
}

AdmissionStats CacheServer::TotalAdmission() const {
  AdmissionStats total;
  for (const auto& pp : ports_) total += SnapshotAdmission(*pp);
  return total;
}

std::vector<AdmissionStats> CacheServer::PerClientAdmission() const {
  std::vector<AdmissionStats> out;
  out.reserve(ports_.size());
  for (const auto& pp : ports_) out.push_back(SnapshotAdmission(*pp));
  return out;
}

std::uint64_t CacheServer::quarantined() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    shard->ownership.AssertHeld();  // quiescent (post-join) read
    total += shard->quarantined;
  }
  return total;
}

std::uint64_t CacheServer::watchdog_sheds() const {
  return watchdog_sheds_.load(std::memory_order_relaxed);
}

ServeResult QuiescentServeResult(const CacheServer& server) {
  ServeResult result;
  result.total = server.TotalStats();
  result.per_client = server.PerClientStats();
  result.per_shard = server.PerShardStats();
  result.requests = server.requests_applied();
  result.batches = server.batches_applied();
  result.shard_drains = server.shard_drains();
  result.avg_drained_batch =
      result.shard_drains > 0
          ? static_cast<double>(result.requests) /
                static_cast<double>(result.shard_drains)
          : 0.0;
  result.consumers = server.consumers();
  result.cores_detected = std::max(1u, std::thread::hardware_concurrency());
  result.per_consumer_requests = server.PerConsumerRequests();
  result.admission = server.TotalAdmission();
  result.quarantined = server.quarantined();
  result.watchdog_sheds = server.watchdog_sheds();
  return result;
}

namespace {

double PercentileUs(const std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sorted_us.size() - 1),
                       q * static_cast<double>(sorted_us.size() - 1)));
  return sorted_us[rank];
}

}  // namespace

ServeResult ServeTrace(const Trace& trace, const ServerOptions& options,
                       const LoadOptions& load) {
  if (load.clients == 0) {
    throw std::invalid_argument("ServeTrace: need at least one client");
  }
  if (load.batch_size == 0) {
    throw std::invalid_argument("ServeTrace: batch_size must be >= 1");
  }
  if (options.deterministic && load.duration_seconds > 0.0) {
    throw std::invalid_argument(
        "ServeTrace: duration mode replays chunks in wall-clock order and "
        "cannot be deterministic");
  }
  std::uint64_t n = trace.size();
  if (load.request_budget > 0) n = std::min<std::uint64_t>(n, load.request_budget);

  CacheServer server(options, load.clients);
  const std::size_t clients = load.clients;
  std::vector<std::vector<double>> latencies_us(clients);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      // Contiguous chunk so client streams concatenate to the capped
      // trace (the determinism rule depends on this layout).
      const std::uint64_t begin = n * c / clients;
      const std::uint64_t end = n * (c + 1) / clients;
      std::vector<double>& lat = latencies_us[c];
      const bool timed = load.duration_seconds > 0.0;
      bool first_pass = true;
      bool out_of_time = false;
      bool stopped = false;
      do {
        for (std::uint64_t pos = begin; pos < end; pos += load.batch_size) {
          // The first pass always completes — every request is applied
          // at least once — so the deadline only cuts later passes.
          if (out_of_time && !first_pass) break;
          const std::size_t count = static_cast<std::size_t>(
              std::min<std::uint64_t>(load.batch_size, end - pos));
          const auto t0 = std::chrono::steady_clock::now();
          const SubmitResult outcome =
              server.Submit(c, trace.requests.data() + pos, count);
          const std::chrono::duration<double, std::micro> took =
              std::chrono::steady_clock::now() - t0;
          // Shed and expired batches are counted by the server's
          // ledger and skipped.
          if (outcome == SubmitResult::kApplied) lat.push_back(took.count());
          stopped = outcome == SubmitResult::kStopped;
          if (stopped) break;
          if (timed) {
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - wall_start;
            out_of_time = elapsed.count() >= load.duration_seconds;
          }
        }
        first_pass = false;
      } while (timed && !out_of_time && !stopped && begin < end);
      server.Finish(c);
    });
  }
  for (std::thread& t : drivers) t.join();
  server.Shutdown();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  ServeResult result = QuiescentServeResult(server);
  result.wall_seconds = wall.count();
  result.throughput_rps =
      wall.count() > 0 ? static_cast<double>(result.requests) / wall.count()
                       : 0.0;
  std::vector<double> all_us;
  for (const std::vector<double>& lat : latencies_us) {
    all_us.insert(all_us.end(), lat.begin(), lat.end());
  }
  std::sort(all_us.begin(), all_us.end());
  result.p50_us = PercentileUs(all_us, 0.50);
  result.p99_us = PercentileUs(all_us, 0.99);
  return result;
}

}  // namespace clic::server
