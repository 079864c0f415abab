#include "sim/trace_ops.h"

#include <algorithm>

#include "common/rng.h"

namespace clic {

Trace InjectNoiseHints(const Trace& base, int num_types, int domain_size,
                       double zipf_z, std::uint64_t seed) {
  Trace out;
  out.name = base.name + "+noise" + std::to_string(num_types);
  out.requests.reserve(base.requests.size());
  if (num_types <= 0) {
    // No noise: copy the requests and deep-copy the registry. Sharing
    // base.hints would alias mutable interning state — a later Intern()
    // through either trace would mutate both.
    out.hints = std::make_shared<HintRegistry>(*base.hints);
    out.requests = base.requests;
    return out;
  }
  Rng rng(seed);
  ZipfGenerator zipf(static_cast<std::uint64_t>(std::max(1, domain_size)),
                     zipf_z);
  for (const Request& r : base.requests) {
    HintVector v = base.hints->Get(r.hint_set);
    for (int t = 0; t < num_types; ++t) {
      v.attrs.push_back(zipf(rng));
    }
    Request nr = r;
    nr.hint_set = out.hints->Intern(std::move(v));
    out.requests.push_back(nr);
  }
  return out;
}

Trace Interleave(const std::string& name,
                 const std::vector<const Trace*>& sources) {
  Trace out;
  out.name = name;
  std::size_t total = 0;
  for (const Trace* t : sources) total += t->size();
  out.requests.reserve(total);
  std::vector<std::size_t> pos(sources.size(), 0);
  // Pre-intern a hint-id translation table per source to keep the merge
  // loop free of hashing for already-seen ids.
  std::vector<std::vector<std::uint32_t>> remap(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    remap[s].assign(sources[s]->hints->size(), kInvalidIndex);
  }
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (pos[s] >= sources[s]->size()) continue;
      progressed = true;
      Request r = sources[s]->requests[pos[s]++];
      r.client = static_cast<ClientId>(s);
      std::uint32_t& mapped = remap[s][r.hint_set];
      if (mapped == kInvalidIndex) {
        HintVector v = sources[s]->hints->Get(r.hint_set);
        v.client = static_cast<ClientId>(s);
        mapped = out.hints->Intern(std::move(v));
      }
      r.hint_set = mapped;
      out.requests.push_back(r);
    }
  }
  return out;
}

}  // namespace clic
