#include "server/cache_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
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
  }
  for (const Request& r : trace.requests) {
    parts[ShardOf(r.page, parts.size())].requests.push_back(r);
  }
  return parts;
}

SimResult PartitionedSimulate(const Trace& trace,
                              const ServerOptions& options) {
  const std::vector<Trace> parts = PartitionByShard(trace, options.shards);
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
                        const fault::FaultPlan* plan) {
  Trace out;
  out.name = trace.name;
  out.hints = trace.hints;  // read-only alias; PartitionByShard deep-copies
  const std::uint64_t every = plan != nullptr ? plan->shed_every : 0;
  out.requests.reserve(trace.size());
  const std::uint64_t clients = std::max<std::size_t>(1, load.clients);
  const std::uint64_t batch = std::max<std::size_t>(1, load.batch_size);
  // Mirrors ServeTrace's driver loop exactly: contiguous per-client
  // chunks, fixed batch grid, 1-based per-client submit index.
  for (std::uint64_t c = 0; c < clients; ++c) {
    const auto [begin, end] = ClientChunk(trace.size(), clients, c);
    std::uint64_t index = 0;
    for (std::uint64_t pos = begin; pos < end; pos += batch) {
      ++index;
      if (fault::Fires(every, index)) continue;
      const std::uint64_t count = std::min<std::uint64_t>(batch, end - pos);
      out.requests.insert(
          out.requests.end(), trace.requests.begin() + static_cast<long>(pos),
          trace.requests.begin() + static_cast<long>(pos + count));
    }
  }
  return out;
}

CacheServer::CacheServer(const ServerOptions& options, std::size_t num_clients)
    : pages_per_shard_(ShardCachePages(options.cache_pages, options.shards)),
      deadline_ns_(MsToNs(options.batch_deadline_ms)),
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
  unsigned workers = options.consumers;
  if (workers == 0) {
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
    threads_.emplace_back([this, k] { ConsumeOwned(k); });
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
  if (fault_ != nullptr &&
      fault::Fires(fault_->corrupt_every, batch->submit_index)) {
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
      port.quarantined += bad;
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
  if (fault_ != nullptr &&
      fault::Fires(fault_->shed_every, batch->submit_index)) {
    port.adm.Add(SubmitResult::kShed, n);
    return SubmitResult::kShed;
  }
  RouteBatch(port, batch, requests, n);
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
  batch->deadline_ns = deadline_ns_ > 0 ? NowNs() + deadline_ns_ : 0;
  batch->pending.store(static_cast<std::uint32_t>(port.targets.size()),
                       std::memory_order_relaxed);
  batch->outcome.store(SubmitResult::kEnqueued, std::memory_order_relaxed);
  batch->done.store(false, std::memory_order_relaxed);
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
  for (std::size_t t : port.targets) consumers_[t]->work.Wake();
  return SubmitResult::kEnqueued;
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
  const Batch& batch = port.slots.at(slot);
  // The batch's last slice publishes done, then wakes the port's parker
  // (FinishSlice); after Stop() that slice is finished by the final
  // drain, so every admitted batch completes.
  port.done.Wait(
      [&batch] { return batch.done.load(std::memory_order_acquire); });
  const SubmitResult outcome = batch.outcome.load(std::memory_order_relaxed);
  // This thread IS the client's one producer, the ledger's one writer:
  // Admit counted the batch enqueued, and its outcome is counted here.
  port.producer.Acquire();
  port.adm.Add(outcome, batch.n);
  port.producer.Release();
  return outcome;
}

bool CacheServer::Completed(std::size_t client, std::size_t slot) const {
  return ports_.at(client)->slots.at(slot).done.load(
      std::memory_order_acquire);
}

void CacheServer::Finish(std::size_t client) {
  ClientPort& port = *ports_.at(client);
  port.eos.store(true, std::memory_order_release);
  for (auto& cp : consumers_) cp->work.Wake();
}

void CacheServer::Shutdown() {
  if (joined_) return;
  joined_ = true;
  for (std::thread& t : threads_) t.join();
}

void CacheServer::Stop() {
  stop_.store(true, std::memory_order_seq_cst);
  // Consumers see stop_ in their wait predicate. A producer awaiting a
  // batch is woken when the batch finishes: by its consumer after the
  // slice in hand, or by the final drain below.
  for (auto& cp : consumers_) cp->work.Wake();
  Shutdown();
  // Final drain: with consumers joined, every admitted-but-unfinished
  // slice sits in exactly one ring. Quiesce any producer mid-push first
  // (the submitting flag; such a producer saw stop_ false and will
  // complete its pushes promptly); after that no push can land.
  for (auto& pp : ports_) {
    while (pp->submitting.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
  }
  // Then this thread takes each joined consumer's role in turn: it
  // applies the slices of batches a consumer already decided to serve,
  // so each of them reaches all of its shards, and decides the rest
  // stopped.
  for (std::size_t k = 0; k < consumers_.size(); ++k) {
    Consumer& me = *consumers_[k];
    me.self.Acquire();
    for (auto& pp : ports_) {
      Batch* batch = nullptr;
      while (pp->rings[k]->TryPop(&batch)) {
        if (Decide(*batch, SubmitResult::kStopped) == SubmitResult::kApplied) {
          ApplySlice(k, me, *batch);
        }
        FinishSlice(*pp, batch);
      }
    }
    me.self.Release();
  }
}

SubmitResult CacheServer::Decide(Batch& batch, SubmitResult first) {
  // Relaxed: the outcome orders nothing else. Each slice decides or
  // reads it before its FinishSlice, whose acq_rel count hands it to
  // the last finisher and, through done, to the producer. The ring pop
  // orders this load after Admit's reset, so it never reads a value
  // from the slot's previous batch. A slice that sees the decision
  // skips the exchange; one that races the first loses it and gets
  // the decision from the failed exchange.
  SubmitResult decided = batch.outcome.load(std::memory_order_relaxed);
  if (decided == SubmitResult::kEnqueued &&
      batch.outcome.compare_exchange_strong(decided, first,
                                            std::memory_order_relaxed)) {
    return first;
  }
  return decided;
}

void CacheServer::FinishSlice(ClientPort& port, Batch* batch) {
  if (batch->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // The last finisher publishes done. The producer may reuse the slot as
  // soon as it sees done, so the batch is not touched after this store.
  batch->done.store(true, std::memory_order_release);
  port.done.Wake();
}

void CacheServer::StallIfPlanned(Shard& shard, std::size_t shard_index) {
  for (const fault::ShardStall& s : fault_->stalls) {
    if (s.shard == shard_index && shard.drains >= s.after_drain &&
        shard.drains < s.after_drain + s.drains) {
      SlicedSleep(s.ms, stop_);
    }
  }
}

void CacheServer::PauseIfPlanned(std::size_t consumer_index,
                                 std::uint64_t processed) {
  for (const fault::ConsumerPause& p : fault_->pauses) {
    if (p.consumer == consumer_index && processed >= p.after_batch &&
        processed < p.after_batch + p.batches) {
      SlicedSleep(p.ms, stop_);
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
    if (fault_ != nullptr && fault_->HasStalls()) {
      StallIfPlanned(shard, run.shard);
    }
    const Request* const span = reqs + run.offset;
    // One virtual dispatch per drained run — the whole reason routing
    // gathers contiguous per-shard request spans.
    shard.policy->AccessBatch(span, shard.seq, run.count, hits);
    shard.seq += run.count;
    shard.tally.Record(span, hits, run.count);
    ++shard.drains;
#ifndef NDEBUG
    // release: publishes this run's shard writes to whichever consumer
    // a (buggy) topology would let in next, keeping the assert honest.
    shard.entered.store(false, std::memory_order_release);
#endif
    shard.ownership.Release();
  }
}

bool CacheServer::PopAndProcess(std::size_t k, Consumer& me, std::size_t c) {
  ClientPort& port = *ports_[c];
  Batch* batch = nullptr;
  if (!port.rings[k]->TryPop(&batch)) return false;
  if (fault_ != nullptr && fault_->HasPauses()) {
    PauseIfPlanned(k, me.batches_processed);
  }
  // The first slice popped decides for the whole batch: a stale batch is
  // dropped on every shard, a fresh one served on every shard.
  const bool stale = batch->deadline_ns != 0 && NowNs() > batch->deadline_ns;
  if (Decide(*batch, stale ? SubmitResult::kExpired : SubmitResult::kApplied) ==
      SubmitResult::kApplied) {
    ApplySlice(k, me, *batch);
  }
  ++me.batches_processed;
  FinishSlice(port, batch);
  return true;
}

bool CacheServer::HasWork(std::size_t k, const Consumer& me) const {
  if (stop_.load(std::memory_order_acquire)) return true;
  for (std::size_t c = 0; c < ports_.size(); ++c) {
    if (me.done_client[c]) continue;
    const ClientPort& port = *ports_[c];
    if (!port.rings[k]->Empty() || port.eos.load(std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void CacheServer::ConsumeOwned(std::size_t k) {
  Consumer& me = *consumers_[k];
  // This thread is consumer k's drain thread for its whole lifetime.
  me.self.Acquire();
  me.done_client.assign(ports_.size(), 0);
  std::size_t remaining = ports_.size();
  while (remaining > 0 && !stop_.load(std::memory_order_acquire)) {
    bool progress = false;
    for (std::size_t c = 0; c < ports_.size(); ++c) {
      if (me.done_client[c]) continue;
      // A visit pops at most one ring's worth, so a client that keeps
      // its ring full cannot starve the others. Re-check stop between
      // pops: batches queued behind a stall that Stop() unwound belong
      // to Stop()'s final drain, not to this consumer.
      for (std::size_t pops = 0; pops < kPipelineDepth &&
                                 !stop_.load(std::memory_order_acquire) &&
                                 PopAndProcess(k, me, c);
           ++pops) {
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
    if (!progress && remaining > 0) {
      // Every ring is empty: spin, then park until a push, Finish() or
      // Stop() wakes this consumer. The predicate runs on this thread.
      me.work.Wait([this, k, &me] {
        me.self.AssertHeld();
        return HasWork(k, me);
      });
    }
  }
  me.self.Release();
}

ServeResult CacheServer::Snapshot() const {
  ServeResult result;
  result.per_consumer_requests.assign(consumers_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    shard.ownership.AssertHeld();  // quiescent (post-join) read
    const CacheStats shard_total = shard.tally.FoldInto(result.per_client);
    result.total += shard_total;
    result.per_shard.push_back(shard_total);
    result.per_consumer_requests[owner_of_[s]] +=
        shard_total.reads + shard_total.writes;
    result.shard_drains += shard.drains;
  }
  result.requests = result.total.reads + result.total.writes;
  result.avg_drained_batch =
      result.shard_drains > 0
          ? static_cast<double>(result.requests) /
                static_cast<double>(result.shard_drains)
          : 0.0;
  result.consumers = consumers();
  result.cores_detected = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& pp : ports_) {
    pp->producer.AssertHeld();  // quiescent read of the producer's fields
    result.per_client_admission.push_back(pp->adm);
    result.admission += pp->adm;
    result.quarantined += pp->quarantined;
  }
  return result;
}

ServeResult ServeTrace(const Trace& trace, const ServerOptions& options,
                       const LoadOptions& load) {
  if (load.clients == 0) {
    throw std::invalid_argument("ServeTrace: need at least one client");
  }
  if (load.batch_size == 0) {
    throw std::invalid_argument("ServeTrace: batch_size must be >= 1");
  }
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kDepth = CacheServer::kPipelineDepth;
  CacheServer server(options, load.clients);
  std::vector<std::vector<double>> latencies_us(load.clients);
  const auto wall_start = Clock::now();
  const auto drive = [&](std::size_t c) {
    // Slots are used in FIFO order: the `in_flight` slots from `oldest`
    // on hold batches Begun at begun_at[slot] and not yet Awaited.
    std::array<Clock::time_point, kDepth> begun_at{};
    std::size_t oldest = 0;
    std::size_t in_flight = 0;
    const auto await_oldest = [&] {
      // Expired batches are counted by the server's ledger and skipped.
      if (server.Await(c, oldest) == SubmitResult::kApplied) {
        latencies_us[c].push_back(std::chrono::duration<double, std::micro>(
                                      Clock::now() - begun_at[oldest])
                                      .count());
      }
      oldest = (oldest + 1) % kDepth;
      --in_flight;
    };
    const auto [begin, end] = ClientChunk(trace.size(), load.clients, c);
    for (std::uint64_t pos = begin; pos < end; pos += load.batch_size) {
      if (in_flight == kDepth) await_oldest();
      const std::size_t slot = (oldest + in_flight) % kDepth;
      const std::size_t count = static_cast<std::size_t>(
          std::min<std::uint64_t>(load.batch_size, end - pos));
      begun_at[slot] = Clock::now();
      // A shed batch is final at Begin and leaves its slot free.
      if (server.Begin(c, slot, trace.requests.data() + pos, count) ==
          SubmitResult::kEnqueued) {
        ++in_flight;
      }
    }
    while (in_flight > 0) await_oldest();
    server.Finish(c);
  };
  if (options.deterministic) {
    // Client order: every batch of a client is applied before the next
    // client's first is admitted (the determinism rule).
    for (std::size_t c = 0; c < load.clients; ++c) drive(c);
  } else {
    std::vector<std::thread> drivers;
    drivers.reserve(load.clients);
    for (std::size_t c = 0; c < load.clients; ++c) {
      drivers.emplace_back(drive, c);
    }
    for (std::thread& t : drivers) t.join();
  }
  server.Shutdown();
  const std::chrono::duration<double> wall = Clock::now() - wall_start;

  ServeResult result = server.Snapshot();
  std::vector<double> all_us;
  for (const std::vector<double>& lat : latencies_us) {
    all_us.insert(all_us.end(), lat.begin(), lat.end());
  }
  result.timing = TimeRun(result.requests, wall.count(), &all_us);
  return result;
}

}  // namespace clic::server
