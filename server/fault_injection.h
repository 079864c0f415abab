// Deterministic fault injection for the online cache server.
//
// A FaultPlan is a seeded, declarative description of the chaos a run
// should experience: shard stalls (the owning consumer sleeps inside
// the shard's drain, as a seized disk or a page-compression stall
// would — blocking that core's whole shard set, since ownership is the
// only serialization),
// consumer pauses (the drain thread naps between batches, as a noisy
// neighbour or a GC pause would), deterministic admission shedding
// (every k-th batch of every client is rejected, simulating an
// overloaded front end with a reproducible victim set), and
// hint-corruption bit flips (seeded bit flips in Request::hint_set at
// submit time, in CacheServer::RouteBatch, feeding the kind of garbage
// a torn wire message would).
//
// Determinism contract: every fault fires on a *logical* index — a
// shard's drain count, a consumer's processed-batch count, a client's
// 1-based submit index — never on wall-clock time, and corruption draws
// from an RNG seeded by (plan seed, client, submit index). Replaying
// the same plan against the same workload therefore injects the same
// faults at the same points; in deterministic server mode the surviving
// requests' hit/miss decisions are bit-identical run to run.
//
// The server compiles the hooks behind a `fault_ == nullptr` check, so
// a plan-free run pays one predictable branch per drain and nothing
// else (see server/cache_server.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace clic::server::fault {

/// Shard `shard` sleeps `ms` milliseconds at the start of each of its
/// drains [after_drain, after_drain + drains). The sleep happens on the
/// owning consumer thread — there is no shard lock to hold; blocking
/// the owner stalls every shard that consumer owns, which is exactly
/// the blast radius a seized disk has under thread-per-core ownership.
/// The sleep loop checks the server's stop flag every millisecond so
/// Stop() never waits out a long stall.
struct ShardStall {
  std::size_t shard = 0;
  std::uint64_t after_drain = 0;
  std::uint64_t drains = 1;
  double ms = 1.0;
};

/// Consumer thread `consumer` sleeps `ms` milliseconds before each of
/// its processed batches [after_batch, after_batch + batches).
struct ConsumerPause {
  std::size_t consumer = 0;
  std::uint64_t after_batch = 0;
  std::uint64_t batches = 1;
  double ms = 1.0;
};

struct FaultPlan {
  /// Seed for the corruption RNG (mixed with client id and submit
  /// index, so corruption is per-batch deterministic regardless of
  /// drain interleaving).
  std::uint64_t seed = 1;
  std::vector<ShardStall> stalls;
  std::vector<ConsumerPause> pauses;
  /// > 0: admission deterministically sheds every `shed_every`-th batch
  /// of each client (1-based per-client submit index). The shed set is
  /// a pure function of the plan, so a verify run can simulate exactly
  /// the surviving requests.
  std::uint64_t shed_every = 0;
  /// > 0: every `corrupt_every`-th submitted batch of each client
  /// (1-based submit index) gets `corrupt_flips` seeded single-bit flips
  /// in Request::hint_set fields, made as the batch is routed. Requires
  /// the server's hint-sanity guard (hint_bound > 0): an unguarded
  /// corrupted hint id could index policy state out of range or force a
  /// gigantic per-hint allocation.
  std::uint64_t corrupt_every = 0;
  std::uint32_t corrupt_flips = 1;

  // ---- network-edge faults (server/net/, PR 9). All triggered on
  // logical counters — a connection's reply index, its read-event
  // index, the acceptor's accept index — never on wall-clock time, so
  // a chaos run replays deterministically. ----

  /// > 0: the server tears every k-th reply write per connection into
  /// two separate send() calls. TCP reassembles, so served decisions
  /// are unchanged — what this exercises is the *client's* incremental
  /// frame parser.
  std::uint64_t net_torn_write_every = 0;
  /// > 0: every k-th read event per connection drains at most one byte,
  /// forcing the server's parser through its partial-frame path.
  /// Decisions are unchanged; only reassembly is stressed.
  std::uint64_t net_partial_read_every = 0;
  /// > 0: every k-th accepted connection is reset (closed abruptly)
  /// right after its first reply. Deterministic per accept index, but
  /// it truncates that connection's served stream — incompatible with
  /// --verify.
  std::uint64_t net_reset_every = 0;
  /// > 0: the acceptor sleeps net_accept_stall_ms before every k-th
  /// accept (a seized accept queue; connection attempts back up).
  std::uint64_t net_accept_stall_every = 0;
  double net_accept_stall_ms = 1.0;

  bool HasStalls() const { return !stalls.empty(); }
  bool HasPauses() const { return !pauses.empty(); }
  bool HasCorruption() const { return corrupt_every > 0; }
  bool HasNetFaults() const {
    return net_torn_write_every > 0 || net_partial_read_every > 0 ||
           net_reset_every > 0 || net_accept_stall_every > 0;
  }
};

/// The plan's one "every k-th" rule: a rule with `every` > 0 fires
/// when the logical `index` (a 1-based counter of submits, reads,
/// replies or accepts) is a multiple of it, and `every` == 0 never
/// fires. Pure, so every trigger replays with the plan.
inline bool Fires(std::uint64_t every, std::uint64_t index) {
  return every > 0 && index % every == 0;
}

/// Parses the textual plan grammar:
///
///   plan    := clause (';' clause)*
///   clause  := 'seed=' N
///            | 'stall:'   'shard=' N ',after=' N ',drains=' N ',ms=' F
///            | 'pause:'   'consumer=' N ',after=' N ',batches=' N ',ms=' F
///            | 'shed:'    'every=' N
///            | 'corrupt:' 'every=' N [',flips=' N]
///            | 'net:'     net-key=N (',' net-key=N)*
///   net-key := 'torn-write' | 'partial-read' | 'reset'
///            | 'accept-stall' | 'stall-ms'
///
/// A net: clause needs at least one of torn-write/partial-read/reset/
/// accept-stall with a value >= 1 (stall-ms tunes the accept-stall
/// sleep and requires accept-stall in the same plan).
///
/// N and F follow the number rules of common/text_parse.h, whose key
/// tables also print the valid set. Keys within a clause may appear in
/// any order; unlisted keys keep their defaults. A setting is given
/// once: seed=, shed: and corrupt: at most once per plan, and each net:
/// key at most once across the plan's net: clauses. stall: and pause:
/// clauses add up, one stall or pause each. Returns false and fills
/// `*error` (naming the offending clause or key and the valid set) on
/// any malformed or repeated input.
bool ParseFaultPlan(const std::string& spec, FaultPlan* out,
                    std::string* error);

}  // namespace clic::server::fault
