// Replacement-policy interface shared by the simulator, the comparison
// policies, and the CLIC engine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/trace.h"

namespace clic {

/// A cache replacement policy simulated over a request trace.
///
/// AccessBatch() is the one way into a policy: one virtual call covers
/// a whole block of requests, so dispatch, window checks, and
/// stats-array traffic are amortized over the batch, and every policy
/// runs it through the one software-pipelined loop, PipelinedBatch in
/// policies/common.h. Access() is a batch of one: it warms nothing
/// ahead and no window closes inside its span, so a loop of Access()
/// calls is the plain per-request replay, the reference the
/// equivalence suite compares every batch size against. Neither entry
/// point allocates on the heap (for the implementations in this repo).
///
/// Batched contract (see DESIGN.md "Batched hot path"):
///   - `hits_out[i]` is written 1 iff request i was resident before its
///     access, 0 otherwise — byte-for-byte the same decisions as n
///     sequential Access(reqs[i], first_seq + i) calls on the same
///     starting state. The equivalence suite
///     (tests/test_batch_equivalence.cc) pins this for every policy.
///   - The caller owns `hits_out` (at least n bytes) and `reqs`; both
///     must stay valid for the duration of the call only.
///   - Request i has seq == first_seq + i, the 0-based index of the
///     request in the trace. The seq line is gap-free: a policy's
///     first batch starts at 0 and each later one where the previous
///     ended (first_seq' == first_seq + n). OPT's next-use oracle
///     relies on it, and CLIC measures its windows in requests and
///     asserts the line at every batch in debug builds. Simulate() and
///     each server shard keep it by construction.
///   - n == 0 is a no-op.
///
/// Thread ownership: a Policy instance is NOT thread-safe and has no
/// internal locking. Exactly one thread may be inside Access() or
/// AccessBatch() at a time, and implementations may assume their state
/// is never observed concurrently. The simulator satisfies this
/// trivially (one thread per policy); the sweep runner builds one
/// private policy per grid point; the online server
/// (server/cache_server.h) gives each shard its own policy and routes
/// every batch slice to the single consumer thread that owns the shard
/// — ownership, not locking, is the serialization — asserting the
/// single-entry discipline in debug builds. Any new caller must provide
/// the same external serialization.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Applies `n` consecutive requests with seqs [first_seq, first_seq+n)
  /// and records the hit/miss decisions in `hits_out`.
  virtual void AccessBatch(const Request* reqs, SeqNum first_seq,
                           std::size_t n, std::uint8_t* hits_out) = 0;

  /// Returns true iff the page was resident before this access: a
  /// batch of one. Virtual only so a wrapper can forward it.
  virtual bool Access(const Request& r, SeqNum seq) {
    std::uint8_t hit = 0;
    AccessBatch(&r, seq, 1, &hit);
    return hit != 0;
  }
};

}  // namespace clic
