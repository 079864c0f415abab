// Online sharded cache server: the serving layer the paper's storage
// server implies. Pages are hash-partitioned across S shards; each
// consumer thread *owns* a disjoint set of shards — policy, seq counter
// and stats for a shard live on exactly one core, with no mutex between
// them and the requests they serve. Clients reach the owning core
// through lock-free bounded SPSC rings (common/spsc_ring.h), one ring
// per (client, consumer) pair: the producing client thread computes
// every request's shard once at submit time, groups the batch into
// contiguous per-shard runs, and pushes the batch into the ring of each
// consumer that owns one of its shards. The steady-state drain path
// (submit -> ring -> owning-core apply -> completion) acquires no
// std::mutex at all. A thread with nothing to do — a producer awaiting
// its batch, a consumer whose rings are empty — spins for one time
// budget and then parks exactly (server/parker.h); the parker's mutex
// and condition variable are touched only by a thread that ran out of
// budget and the one that wakes it.
//
// Determinism rule: with `deterministic == true` the server runs exactly
// one consumer thread (owning every shard) that drains client rings in
// strict client order (all of client 0's stream, then client 1's, ...):
// the consumer loop of concurrent mode, with each pass stopping at the
// first client that has not finished.
// Each shard therefore sees exactly the subsequence of the concatenated
// client streams whose pages hash to it, in stream order, with a
// per-shard seq counter equal to the request's index within that
// subsequence — which is precisely what a sequential Simulate() of the
// shard's partition observes. So the aggregate (and per-client) hit
// counts of a deterministic run are bit-identical to per-shard
// sequential Simulate() of the partitioned trace; ServeTrace arranges
// client chunks so their concatenation is the original trace.
//
// Failure model (see DESIGN.md "Failure model & degradation"): every
// resource a producer can exhaust is bounded by construction — a client
// keeps at most kPipelineDepth batches in flight, one per closed-loop
// slot, and every ring has that many slots, so admission never waits
// for space. Admitted batches can carry a service deadline past which
// they are dropped instead of served stale, a hint-sanity guard
// quarantines corrupted hint ids into an untrusted fallback bucket
// instead of letting them index (or explode) policy state, and Stop()
// aborts a wedged run — joining all consumers, finishing every batch a
// consumer had started, and discarding the rest with exact accounting.
// A batch has one outcome, decided once by the first of its slices to
// be popped: it is applied on every shard it touches or on none.
// Deterministic fault injection (server/fault_injection.h) drives all
// of it reproducibly.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/spsc_ring.h"
#include "common/thread_annotations.h"
#include "core/clic.h"
#include "server/fault_injection.h"
#include "server/ledger.h"
#include "server/parker.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"

namespace clic::server {

/// Nanoseconds since the steady clock's epoch: the serving path's one
/// clock (batch deadlines, the wire edge's deadlines and idle spin).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shard assignment for a page. FNV-1a over the page id so adjacent
/// pages spread across shards; every component that partitions (the
/// server, PartitionByShard, the determinism test) must use this one
/// function. The server computes it once per request at submit time and
/// carries the shard id alongside the batch from there on.
std::size_t ShardOf(PageId page, std::size_t shards);

/// Per-shard cache capacity for a total budget of `total_pages` split
/// across `shards` shards (each shard gets at least one page).
std::size_t ShardCachePages(std::size_t total_pages, std::size_t shards);

/// Client `c`'s share of an `n`-request run driven by `clients` clients:
/// requests [n*c/clients, n*(c+1)/clients). The chunks concatenate, in
/// client order, to [0, n) — the layout the determinism rule relies on.
/// ServeTrace, FilterShedBatches and RunWireLoad all chunk with it.
inline std::pair<std::uint64_t, std::uint64_t> ClientChunk(
    std::uint64_t n, std::uint64_t clients, std::uint64_t c) {
  return {n * c / clients, n * (c + 1) / clients};
}

/// Splits `trace` into `shards` sub-traces by ShardOf(page), preserving
/// request order within each shard. Hint registries are deep copies (the
/// ids are unchanged), honouring the no-shared-mutable-registry rule.
std::vector<Trace> PartitionByShard(const Trace& trace, std::size_t shards);

struct ServerOptions;  // below
struct LoadOptions;    // below

/// Per-shard sequential Simulate() of the partitioned trace, merged
/// across shards: the ground truth the deterministic server mode
/// reproduces bit-exactly. The single implementation both
/// `clic_serve --verify` and the determinism tests compare against, so
/// the two checks can never drift apart.
SimResult PartitionedSimulate(const Trace& trace, const ServerOptions& options);

/// The requests a deterministic run with fault plan `plan` actually
/// serves: the trace, chunked and batched exactly as ServeTrace's
/// drivers do, with every batch the plan's `shed_every` rule rejects
/// removed. Pipelining does not move a batch's 1-based submit index, so
/// the set is the same at any depth. With no plan (or no shed clause)
/// this is the trace itself. PartitionedSimulate of this filtered trace
/// is the verify baseline for a chaos run — non-shed requests must
/// produce bit-identical decisions.
Trace FilterShedBatches(const Trace& trace, const LoadOptions& load,
                        const fault::FaultPlan* plan);

struct ServerOptions {
  std::size_t shards = 1;
  /// Total cache budget in pages, split evenly across shards.
  std::size_t cache_pages = 0;
  PolicyKind policy = PolicyKind::kLru;
  ClicOptions clic;  // applied when policy == kClic
  /// Single consumer draining clients in strict id order (see file
  /// comment). Off: consumer count from `consumers`.
  bool deterministic = false;
  /// Explicit consumer (owning-core) count; 0 = auto. Must be
  /// <= shards (a consumer owning zero shards would idle forever) and
  /// 1 when deterministic. Auto picks min(shards, hardware_concurrency).
  /// Shard s is owned by consumer s % consumers.
  unsigned consumers = 0;

  // ---- overload resilience (all off by default) ----

  /// > 0: a batch older than this (admission to the first pop of one of
  /// its slices) is dropped whole as kExpired instead of served stale.
  double batch_deadline_ms = 0.0;
  /// > 0: hint-sanity guard. A submitted request with hint_set >=
  /// hint_bound (possible only via corruption — trace loading validates
  /// ids) is quarantined: remapped to the reserved untrusted hint id
  /// `hint_bound` and counted, instead of indexing policy state with
  /// garbage (for CLIC a huge id would force a gigantic per-hint
  /// allocation). The untrusted bucket earns its own Equation-2
  /// priority; within its rank bucket eviction order is LRU, so
  /// degraded service stays sane. 0 = guard off (trusted callers).
  std::uint32_t hint_bound = 0;
  /// Deterministic fault injection; not owned, may be nullptr (no
  /// faults — the hooks cost one branch per drain). A plan with
  /// corruption requires hint_bound > 0 (constructor-enforced).
  const fault::FaultPlan* fault = nullptr;
};

/// A serve run's result: the hit counts a SimResult carries, plus the
/// server's counters (CacheServer::Snapshot) and the driver's timing.
/// clic_serve prints it and --verify compares it, as it is, with the
/// PartitionedSimulate baseline.
struct ServeResult : SimResult {
  std::vector<CacheStats> per_shard;
  /// Requests that reached a shard policy. A batch is applied whole or
  /// not at all, so this is the ledger's applied_requests.
  std::uint64_t requests = 0;
  /// Per-shard AccessBatch applications; requests / shard_drains is the
  /// average drained batch size (how much of the submitted batch size
  /// survives hash-sharding — the batch amortization actually achieved).
  std::uint64_t shard_drains = 0;
  double avg_drained_batch = 0.0;
  /// Ownership topology actually used, and what the machine offered:
  /// consumer (owning-core) count, std::thread::hardware_concurrency
  /// (at least 1), and requests applied per consumer. per-core req/s
  /// is throughput / consumers; clic_serve emits it so multi-core
  /// runners can gate scaling while a 1-core container is recognizable
  /// as such.
  unsigned consumers = 0;
  unsigned cores_detected = 0;
  std::vector<std::uint64_t> per_consumer_requests;
  /// Exact admission ledger, across all clients and per client.
  AdmissionStats admission;
  std::vector<AdmissionStats> per_client_admission;
  /// Requests remapped to the untrusted hint bucket by the sanity
  /// guard at admission — the degraded-mode counter. A remap counts even
  /// if its batch later expires or is stopped.
  std::uint64_t quarantined = 0;
  /// Filled by the load driver, not the server: ServeTrace's in-process
  /// Begin-to-Await latencies, or the wire latencies of a loopback run,
  /// with up to kPipelineDepth batches in flight per client.
  DriverTiming timing;
};

/// A multi-tenant sharded cache server. Usage:
///   CacheServer server(options, num_clients);
///   ... one producer thread per client calls Submit(client, batch...)
///       repeatedly, then Finish(client) exactly once ...
///   server.Shutdown();   // joins consumers; stats become readable
///   ServeResult result = server.Snapshot();
/// Submit blocks until the batch has been applied (closed loop);
/// Begin/Await split that into admission and completion so one
/// producer can keep up to kPipelineDepth batches in flight (as
/// ServeTrace's drivers and the wire front end do). Stop() aborts a run
/// from any thread: consumers join, batches already started finish,
/// and the rest are discarded as kStopped with exact accounting.
///
/// Threading contract: each client id must be driven by AT MOST ONE
/// producer thread at a time (Submit / Begin / Await / Finish for one
/// client never race with themselves) — the SPSC rings and the plain
/// producer-side ledger fields depend on it. Distinct clients may be
/// driven from distinct threads freely, and Stop()/Shutdown() may be
/// called from any thread.
class CacheServer {
 public:
  /// Builds shards, wires the ownership topology, and starts consumer
  /// threads. Throws std::invalid_argument for unusable options (zero
  /// shards/clients, OPT policy, consumers > shards, more than one
  /// consumer in deterministic mode, corruption injection without a
  /// hint guard).
  CacheServer(const ServerOptions& options, std::size_t num_clients);
  ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  /// Closed-loop batches one client may keep in flight through
  /// Begin/Await (the slot count per client), and the slot count of
  /// every (client, consumer) ring: a client can never have more
  /// batches queued at one consumer than the ring holds, so admission
  /// never waits for space.
  static constexpr std::size_t kPipelineDepth = 16;

  /// Closed loop: admits one batch for `client` and blocks until every
  /// request in it has been applied by its owning consumers — or until
  /// admission rejects it (kShed), its deadline expires in queue
  /// (kExpired), or Stop() aborts the run (kStopped). The caller keeps
  /// ownership of `requests`; they must stay valid until return.
  /// Exactly Begin + Await on slot 0.
  SubmitResult Submit(std::size_t client, const Request* requests,
                      std::size_t n);

  /// Pipelined closed loop, admission half: admits one batch for
  /// `client` into closed-loop slot `slot` (< kPipelineDepth) and
  /// returns without waiting. kEnqueued means the batch is in flight
  /// and the caller must Await(client, slot) before reusing the slot or
  /// releasing `requests`, which stay caller-owned and must remain valid
  /// until then. Any other result is final (rejected at admission, or
  /// kApplied for an empty batch) and nothing is to be awaited.
  SubmitResult Begin(std::size_t client, std::size_t slot,
                     const Request* requests, std::size_t n);

  /// Pipelined closed loop, completion half: blocks until the batch
  /// Begin put in `slot` has completed and returns its outcome
  /// (kApplied / kExpired / kStopped). Batches of one client complete
  /// in admission order per shard (each (client, consumer) ring is
  /// FIFO), but Await may be called in any order. Same producer-thread
  /// contract as Submit.
  SubmitResult Await(std::size_t client, std::size_t slot);

  /// Whether the batch Begin put in `slot` has completed, so that
  /// Await(client, slot) returns at once. Never waits; same
  /// producer-thread contract as Await.
  bool Completed(std::size_t client, std::size_t slot) const;

  /// Marks `client`'s stream complete. Every client must be finished
  /// before Shutdown() returns.
  void Finish(std::size_t client);

  /// Waits for all rings to drain and joins the consumer threads.
  /// Idempotent; called by the destructor if needed.
  void Shutdown();

  /// Aborts the run: consumers exit after the batch slice they are
  /// currently applying (a fault-injected stall checks the stop flag
  /// every millisecond, so even a stalled shard unwinds promptly) and
  /// join. Then the queued slices of every batch a consumer had decided
  /// to serve are applied, so each reaches all of its shards, and every
  /// batch none of whose slices was popped is discarded as kStopped;
  /// producers waiting on either kind return. Idempotent, and a later
  /// Shutdown() is a no-op.
  void Stop();

  // Stats. Exact (every applied request is counted by its shard's
  // owning consumer); call after Shutdown()/Stop() for a quiescent
  // read — the consumer joins give the necessary happens-before.

  /// Everything the server knows about the run, read once from the
  /// quiescent server (after Shutdown(), Stop() or a NetServer drain).
  /// The driver fills in ServeResult::timing.
  ServeResult Snapshot() const;
  // Single parts of the Snapshot, for callers that read one.
  CacheStats TotalStats() const { return Snapshot().total; }
  std::vector<CacheStats> PerShardStats() const {
    return Snapshot().per_shard;
  }
  std::uint64_t requests_applied() const { return Snapshot().requests; }
  std::uint64_t shard_drains() const { return Snapshot().shard_drains; }
  AdmissionStats TotalAdmission() const { return Snapshot().admission; }

  std::size_t shards() const { return shards_.size(); }
  std::size_t pages_per_shard() const { return pages_per_shard_; }
  unsigned consumers() const { return static_cast<unsigned>(consumers_.size()); }
  /// The consumer that owns shard `s` (s % consumers()).
  std::size_t OwnerOf(std::size_t shard) const { return owner_of_[shard]; }

 private:
  /// A contiguous per-shard run inside a routed batch: requests
  /// [offset, offset + count) of the batch's request span all hash to
  /// `shard`. Runs are shard-ascending; the owning consumer applies
  /// exactly the runs whose shard it owns.
  struct ShardRun {
    std::uint32_t shard = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// One submitted batch: a reusable per-client slot inside ClientPort
  /// (up to kPipelineDepth in flight per client, one per slot, each
  /// Begun and Awaited by the client's one producer thread). The
  /// producer fully routes and publishes the batch before the ring
  /// pushes; the ring's release/acquire pair makes every plain field
  /// visible to consumers.
  struct Batch {
    const Request* reqs = nullptr;   // shard-grouped span (or caller's,
                                     // single-shard unmutated fast path)
    std::vector<Request> routed;     // backing store when copied
    std::vector<ShardRun> runs;      // shard-ascending
    std::size_t n = 0;
    std::int64_t deadline_ns = 0;    // NowNs() stamp; 0 = no deadline
    std::uint64_t submit_index = 0;  // 1-based per client; drives faults
    ClientId client = 0;
    /// Slices (owning consumers) that have not yet finished.
    std::atomic<std::uint32_t> pending{0};
    /// The batch's one outcome: kEnqueued until the first of its slices
    /// to be popped decides kApplied or kExpired (or Stop()'s final drain
    /// decides kStopped) with one compare-exchange; every later slice
    /// follows it (Decide).
    std::atomic<SubmitResult> outcome{SubmitResult::kEnqueued};
    std::atomic<bool> done{false};
  };

  /// Per-client ingress port: one SPSC ring per consumer (this client
  /// produces, that consumer pops), plain producer-side ledger fields
  /// guarded by the `producer` role capability (single producer thread
  /// per client — the clang thread-safety build enforces that every
  /// touch declares the role), atomic completion-side counters (any
  /// consumer may finish a batch), and the parker its producer waits
  /// on for completions.
  struct ClientPort {
    /// The "I am this client's one producer thread" role. Acquired by
    /// Begin, asserted by the quiescent stats snapshot.
    ThreadRole producer;
    // --- producer-side (plain: one producer thread per client) ---
    AdmissionStats adm CLIC_GUARDED_BY(producer);
    std::uint64_t submit_counter CLIC_GUARDED_BY(producer) = 0;  // 1-based
    /// Requests the hint-sanity guard remapped (RouteBatch).
    std::uint64_t quarantined CLIC_GUARDED_BY(producer) = 0;
    /// Reusable closed-loop batch slots, one per pipelined batch in
    /// flight (Submit uses slot 0). Role-guarded use, but consumers read
    /// them through the ring, so the pointer-shaped contract lives in
    /// Batch's docs.
    std::array<Batch, kPipelineDepth> slots;
    std::vector<Request> staging CLIC_GUARDED_BY(producer);
    std::vector<std::uint32_t> shard_ids CLIC_GUARDED_BY(producer);
    std::vector<std::uint32_t> run_offset CLIC_GUARDED_BY(producer);
    std::vector<std::size_t> targets CLIC_GUARDED_BY(producer);
    // --- shared ---
    /// One per consumer, kPipelineDepth slots each.
    std::vector<std::unique_ptr<SpscRing<Batch*>>> rings;
    std::atomic<bool> eos{false};
    /// Producer is inside the push phase. Stop()'s drain spins this
    /// flag out so a push can never land in a ring after the final
    /// drain pass (see Admit/Stop).
    std::atomic<bool> submitting{false};
    // --- completion-side (atomics: consumers finish batches) ---
    std::atomic<std::uint64_t> applied_batches{0}, applied_requests{0};
    std::atomic<std::uint64_t> expired_batches{0}, expired_requests{0};
    std::atomic<std::uint64_t> stopped_batches{0}, stopped_requests{0};
    /// The producer waits here in Await; the last slice to finish a
    /// batch wakes it.
    Parker done;
  };

  /// One owning consumer: its shard set, per-core apply scratch and
  /// stats (guarded by the `self` role — only the consumer thread
  /// itself, or after the join Stop()'s final drain and the snapshot,
  /// may touch them), and the parker it idles on.
  struct Consumer {
    /// The "I am this consumer's drain thread" role. Acquired for the
    /// lifetime of ConsumeOwned, and by Stop()'s final drain once the
    /// thread has joined.
    ThreadRole self;
    std::vector<std::size_t> owned;    // shard ids, ascending; written
                                       // once before threads start
    std::vector<std::uint8_t> done_client CLIC_GUARDED_BY(self);
    std::vector<std::uint8_t> hits CLIC_GUARDED_BY(self);
    std::uint64_t batches_processed CLIC_GUARDED_BY(self) = 0;
    /// The consumer waits here when its rings are empty; a push into one
    /// of them, Finish() and Stop() wake it.
    Parker work;
  };

  /// A cache shard: policy + stats, owned by exactly one consumer. No
  /// mutex: the Policy interface is not thread-safe (core/policy.h) and
  /// the static ownership partition IS the serialization. The
  /// `ownership` role capability makes that partition a compile-time
  /// contract — any function touching policy/seq/stats must declare
  /// CLIC_REQUIRES(ownership) — and the NDEBUG-gated `entered` flag
  /// still asserts it dynamically against topology bugs.
  struct Shard {
    /// "I am the consumer that owns this shard (or, after the join,
    /// Stop()'s final drain or the quiescent snapshot thread)". Acquired
    /// per drained run in ApplySlice, asserted by the stats readers.
    ThreadRole ownership;
    std::unique_ptr<Policy> policy CLIC_GUARDED_BY(ownership);
    SeqNum seq CLIC_GUARDED_BY(ownership) = 0;
    ClientTally tally CLIC_GUARDED_BY(ownership);
    std::uint64_t drains CLIC_GUARDED_BY(ownership) = 0;
#ifndef NDEBUG
    std::atomic<bool> entered{false};  // asserts single-owner discipline
#endif
  };

  /// Admission + routing. Computes every request's shard once, groups
  /// the batch into per-shard runs, applies seeded corruption and the
  /// hint-sanity quarantine on the producer side, and pushes one slice
  /// per owning consumer. Returns kEnqueued on success; any other
  /// result means nothing was pushed. All admission-side accounting
  /// happens here on the plain producer fields.
  SubmitResult Admit(ClientPort& port, Batch* batch, const Request* requests,
                     std::size_t n) CLIC_REQUIRES(port.producer);
  /// Builds batch->reqs/runs from `requests`, including the corruption
  /// and quarantine passes (both submit-time; corruption stays
  /// bit-identical because it draws from the same (seed, client,
  /// submit_index) RNG over the original batch order), and counts the
  /// quarantined requests in port.quarantined.
  void RouteBatch(ClientPort& port, Batch* batch, const Request* requests,
                  std::size_t n) CLIC_REQUIRES(port.producer);
  /// The batch's outcome: `first` if this slice is the first to decide
  /// it, else whatever the first decided.
  static SubmitResult Decide(Batch& batch, SubmitResult first);
  /// Applies consumer `me`'s owned runs of `batch` to their shards,
  /// acquiring each shard's ownership capability for the run.
  void ApplySlice(std::size_t k, Consumer& me, Batch& batch)
      CLIC_REQUIRES(me.self);
  /// Finishes one slice: the last finisher records the batch's decided
  /// outcome in the completion ledger, publishes done and wakes a
  /// parked producer.
  void FinishSlice(ClientPort& port, Batch* batch);
  /// Pops and fully processes one batch slice from client `c`'s ring of
  /// consumer `k` (== `me`). Returns false when the ring was empty.
  bool PopAndProcess(std::size_t k, Consumer& me, std::size_t c)
      CLIC_REQUIRES(me.self);
  /// True when consumer `k` has something to do: Stop() was called, or
  /// a client it has not finished has a queued slice or has Finished.
  /// In deterministic mode only the first unfinished client counts.
  bool HasWork(std::size_t k, const Consumer& me) const
      CLIC_REQUIRES(me.self);
  /// Consumer `k`'s drain thread: passes over the clients in id order,
  /// popping at most kPipelineDepth slices per client per visit, so a
  /// client that keeps its ring full cannot starve the others. In
  /// deterministic mode a pass stops at the first unfinished client.
  void ConsumeOwned(std::size_t k);
  void StallIfPlanned(Shard& shard, std::size_t shard_index)
      CLIC_REQUIRES(shard.ownership);
  void PauseIfPlanned(std::size_t consumer_index, std::uint64_t processed);
  AdmissionStats SnapshotAdmission(const ClientPort& port) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ClientPort>> ports_;
  std::vector<std::unique_ptr<Consumer>> consumers_;
  std::vector<std::thread> threads_;
  std::vector<std::uint32_t> owner_of_;  // shard -> owning consumer
  std::size_t pages_per_shard_ = 0;
  bool deterministic_ = false;
  bool joined_ = false;
  std::int64_t deadline_ns_ = 0;  // batch deadline after admission; 0 = none
  std::uint32_t hint_bound_ = 0;
  const fault::FaultPlan* fault_ = nullptr;
  std::atomic<bool> stop_{false};
};

/// Closed-loop load generation against a CacheServer.
struct LoadOptions {
  std::size_t clients = 1;
  std::size_t batch_size = 64;
};

/// Replays `trace` against a fresh CacheServer with `load.clients`
/// pipelined closed-loop driver threads. Each client Begins its batches
/// on its slots in FIFO order, Awaits the oldest once kPipelineDepth
/// are in flight, and drains the rest before Finish. A batch's latency
/// runs from its Begin to the return of its Await. Batches rejected by
/// admission (shed) or expired in queue are counted and skipped. Throws
/// std::invalid_argument for zero clients or batch size.
ServeResult ServeTrace(const Trace& trace, const ServerOptions& options,
                       const LoadOptions& load);

}  // namespace clic::server
