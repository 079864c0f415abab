// Core trace model: packed request records, client hint vectors, and the
// interning registry that maps hint vectors to dense HintSetIds.
//
// The access path of every policy is indexed by these dense ids, so the
// registry is the only place that ever hashes a hint vector; after
// interning, a hint set is just a 32-bit integer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace clic {

using PageId = std::uint32_t;
using HintSetId = std::uint32_t;
using ClientId = std::uint16_t;
using SeqNum = std::uint64_t;

inline constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

enum class OpType : std::uint8_t {
  kRead = 0,
  kWrite = 1,
};

/// The paper distinguishes writes caused by client buffer replacement
/// (the page was evicted from the client's pool and is a strong signal it
/// may be re-read) from recovery-related writes (checkpoint / WAL
/// activity, unlikely to be re-referenced). TQ and CLIC both exploit the
/// distinction.
enum class WriteKind : std::uint8_t {
  kNone = 0,  // reads
  kReplacement = 1,
  kRecovery = 2,
};

/// One I/O request as seen by the storage server. Packed to 12 bytes so a
/// 2M-request trace is ~24 MB and streams through the simulator at memory
/// bandwidth.
struct Request {
  PageId page = 0;
  HintSetId hint_set = 0;
  ClientId client = 0;
  OpType op = OpType::kRead;
  WriteKind write_kind = WriteKind::kNone;
};
static_assert(sizeof(Request) <= 16, "Request must stay <= 16 bytes");

/// A client-provided hint annotation: an opaque vector of attribute
/// values (DB2-style: buffer pool, object id, object type, access type,
/// ...) plus the id of the client that issued it. CLIC treats the vector
/// as opaque; only the generalization tree interprets positions.
struct HintVector {
  ClientId client = 0;
  std::vector<std::uint32_t> attrs;

  bool operator==(const HintVector& o) const {
    return client == o.client && attrs == o.attrs;
  }
};

/// Interns hint vectors into dense HintSetIds. Ids are assigned in first-
/// seen order, so a trace regenerated from the same seed reproduces the
/// same ids (required for byte-identical .trc cache files).
class HintRegistry {
 public:
  HintSetId Intern(const HintVector& v);
  HintSetId Intern(HintVector&& v);

  const HintVector& Get(HintSetId id) const { return sets_[id]; }
  std::string Describe(HintSetId id) const;
  std::size_t size() const { return sets_.size(); }

 private:
  struct Hash {
    std::size_t operator()(const HintVector& v) const;
  };
  std::vector<HintVector> sets_;
  std::unordered_map<HintVector, HintSetId, Hash> index_;
};

/// A named request trace plus the registry its hint ids refer to. The
/// shared_ptr exists so read-only users (ClicOptions::hint_space) can
/// alias the registry; derived traces (noise-injected, interleaved) must
/// build or deep-copy their own — two traces sharing one registry would
/// also share mutable interning state, so an Intern() through either
/// would mutate both. A trace caches nothing derived from its requests,
/// so a producer or a derivation (shard partition, capped prefix, shed
/// filter) fills only these three fields; a consumer that needs a
/// bound, such as ClientTally's per-client table, grows to it as it
/// reads.
struct Trace {
  std::string name;
  std::shared_ptr<HintRegistry> hints = std::make_shared<HintRegistry>();
  std::vector<Request> requests;

  std::size_t size() const { return requests.size(); }
};

/// Summary columns of the paper's Figure 5 trace table, plus the client
/// count (1 for the single-client paper traces; the tenant-mix
/// scenarios and Figure-11 interleaves carry more).
struct TraceStats {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t distinct_hint_sets = 0;
  std::uint64_t distinct_pages = 0;
  std::uint64_t distinct_clients = 0;
};

TraceStats ComputeStats(const Trace& trace);

}  // namespace clic
