#include "workload/trace_factory.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "workload/server_trace_builder.h"

namespace clic {
namespace {

// Hint attribute layout (DB2-style): {pool, object, object_type,
// access_type}. MySQL traces use the coarser {pool, object, access_type}
// (no object-type attribute) to model its less informative hints.
enum AccessType : std::uint32_t {
  kLookup = 0,
  kScan = 1,
  kInsert = 2,
  kCheckpoint = 3,
};

struct ObjectSpec {
  std::uint32_t pages = 0;
  double weight = 0.0;      // relative access frequency (OLTP mix)
  double dirty_prob = 0.0;  // chance a logical access dirties the page
  std::uint8_t obj_type = 0;  // 0 = data, 1 = index
  double theta = 0.7;         // Zipf skew within the object
  std::uint8_t pool = 0;      // client buffer pool attribute
};

std::uint64_t SeedFromName(const std::string& name) {
  return Fnv1aHash(name) ^ 0xC11C0FA57ull;  // repo-wide trace-seed salt
}

class ObjectSet {
 public:
  ObjectSet(Trace* trace, std::vector<ObjectSpec> specs, bool db2_hints)
      : specs_(std::move(specs)), db2_hints_(db2_hints) {
    double cumulative = 0.0;
    PageId base = 0;
    for (const ObjectSpec& spec : specs_) {
      bases_.push_back(base);
      base += spec.pages;
      cumulative += spec.weight;
      cumulative_weight_.push_back(cumulative);
      zipf_.emplace_back(spec.pages, spec.theta);
    }
    total_weight_ = cumulative;
    // Pre-intern one hint set per (object, access type).
    hint_ids_.resize(specs_.size());
    for (std::size_t o = 0; o < specs_.size(); ++o) {
      for (std::uint32_t a = 0; a <= kCheckpoint; ++a) {
        HintVector v;
        v.client = 0;
        if (db2_hints_) {
          v.attrs = {specs_[o].pool, static_cast<std::uint32_t>(o),
                     specs_[o].obj_type, a};
        } else {
          v.attrs = {specs_[o].pool, static_cast<std::uint32_t>(o), a};
        }
        hint_ids_[o][a] = trace->hints->Intern(std::move(v));
      }
    }
  }

  std::size_t size() const { return specs_.size(); }
  const ObjectSpec& spec(std::size_t o) const { return specs_[o]; }
  PageId base(std::size_t o) const { return bases_[o]; }
  HintSetId hint(std::size_t o, AccessType a) const {
    return hint_ids_[o][a];
  }

  std::size_t PickByWeight(Rng& rng) const {
    const double x = rng.NextDouble() * total_weight_;
    for (std::size_t o = 0; o < cumulative_weight_.size(); ++o) {
      if (x < cumulative_weight_[o]) return o;
    }
    return cumulative_weight_.size() - 1;
  }

  PageId PickPage(std::size_t o, Rng& rng) {
    return bases_[o] + zipf_[o](rng);
  }

 private:
  std::vector<ObjectSpec> specs_;
  std::vector<PageId> bases_;
  std::vector<double> cumulative_weight_;
  std::vector<ZipfGenerator> zipf_;
  std::vector<std::array<HintSetId, kCheckpoint + 1>> hint_ids_;
  double total_weight_ = 0.0;
  bool db2_hints_;
};

// ---- TPC-C-shaped OLTP (the DB2_C* traces) --------------------------------

Trace MakeOltpTrace(const NamedTraceInfo& info, std::uint64_t target) {
  Trace trace;
  trace.name = info.name;
  trace.requests.reserve(target + 8);
  Rng rng(SeedFromName(info.name));

  // 120K-page TPC-C-like database: pools group related tables, indexes
  // are small and hot, order/order-line are insert-heavy.
  std::vector<ObjectSpec> specs = {
      {50, 6.0, 0.40, 0, 0.30, 0},     // warehouse
      {100, 6.0, 0.40, 0, 0.30, 0},    // district
      {8000, 8.0, 0.00, 0, 0.70, 1},   // item data (read only)
      {500, 8.0, 0.00, 1, 0.50, 1},    // item index
      {18000, 12.0, 0.30, 0, 0.80, 2},  // customer data
      {1500, 12.0, 0.05, 1, 0.60, 2},   // customer index
      {30000, 22.0, 0.50, 0, 0.75, 3},  // stock data
      {2500, 22.0, 0.05, 1, 0.55, 3},   // stock index
      {14000, 7.0, 0.60, 0, 0.90, 4},   // orders data
      {1350, 7.0, 0.30, 1, 0.80, 4},    // orders index
      {40000, 14.0, 0.60, 0, 0.85, 4},  // order-line data
      {4000, 2.0, 0.80, 0, 0.95, 5},    // history (append)
  };
  ObjectSet objects(&trace, std::move(specs), /*db2_hints=*/true);

  ServerTraceBuilder builder(&trace, info.buffer_pages, target);
  constexpr std::uint64_t kCheckpointEvery = 60'000;  // logical accesses
  std::uint64_t next_checkpoint = kCheckpointEvery;
  while (!builder.Done()) {
    const std::size_t o = objects.PickByWeight(rng);
    const ObjectSpec& spec = objects.spec(o);
    const PageId page = objects.PickPage(o, rng);
    AccessType access = kLookup;
    if (spec.obj_type == 0 && spec.dirty_prob >= 0.6 && rng.Chance(0.5)) {
      access = kInsert;  // append-heavy tables
    }
    builder.LogicalAccess(page, objects.hint(o, access),
                          rng.Chance(spec.dirty_prob));
    if (builder.logical_accesses() >= next_checkpoint) {
      next_checkpoint += kCheckpointEvery;
      builder.Checkpoint(2'000, objects.hint(o, kCheckpoint));
    }
  }
  trace.requests.resize(target);
  return trace;
}

// ---- TPC-H-shaped DSS (the DB2_H* and MY_H* traces) -----------------------

struct DssLayout {
  std::vector<ObjectSpec> specs;
  std::vector<std::size_t> fact_objects;  // scanned
  std::vector<std::size_t> dim_objects;   // index-looked-up
  std::size_t temp_object = 0;
};

DssLayout Db2DssLayout() {
  DssLayout layout;
  layout.specs = {
      {90'000, 0, 0.00, 0, 0.0, 0},  // 0 lineitem (fact)
      {30'000, 0, 0.00, 0, 0.0, 0},  // 1 orders (fact)
      {24'000, 0, 0.00, 0, 0.0, 1},  // 2 partsupp (fact)
      {12'000, 4, 0.00, 0, 0.80, 2},  // 3 part data
      {800, 8, 0.00, 1, 0.60, 2},     // 4 part index
      {4'000, 3, 0.00, 0, 0.70, 2},   // 5 supplier data
      {300, 6, 0.00, 1, 0.50, 2},     // 6 supplier index
      {8'000, 4, 0.00, 0, 0.80, 3},   // 7 customer data
      {500, 8, 0.00, 1, 0.60, 3},     // 8 customer index
      {40, 6, 0.00, 0, 0.30, 3},      // 9 nation/region
      {10'360, 0, 1.00, 0, 0.0, 4},   // 10 temp / sort spill
  };
  layout.fact_objects = {0, 1, 2};
  layout.dim_objects = {3, 4, 5, 6, 7, 8, 9};
  layout.temp_object = 10;
  return layout;
}

DssLayout MySqlDssLayout() {
  DssLayout layout;
  layout.specs = {
      {80'000, 0, 0.00, 0, 0.0, 0},  // 0 lineitem (fact)
      {25'000, 0, 0.00, 0, 0.0, 0},  // 1 orders (fact)
      {10'000, 4, 0.00, 0, 0.80, 0},  // 2 part data
      {700, 8, 0.00, 1, 0.60, 0},     // 3 part index
      {3'000, 3, 0.00, 0, 0.70, 0},   // 4 supplier data
      {250, 6, 0.00, 1, 0.50, 0},     // 5 supplier index
      {7'000, 4, 0.00, 0, 0.80, 0},   // 6 customer data
      {450, 8, 0.00, 1, 0.60, 0},     // 7 customer index
      {30, 6, 0.00, 0, 0.30, 0},      // 8 nation/region
      {23'570, 0, 1.00, 0, 0.0, 0},   // 9 temp / sort spill
  };
  layout.fact_objects = {0, 1};
  layout.dim_objects = {2, 3, 4, 5, 6, 7, 8};
  layout.temp_object = 9;
  return layout;
}

Trace MakeDssTrace(const NamedTraceInfo& info, std::uint64_t target,
                   DssLayout layout, bool db2_hints) {
  Trace trace;
  trace.name = info.name;
  trace.requests.reserve(target + 8);
  Rng rng(SeedFromName(info.name));
  ObjectSet objects(&trace, std::move(layout.specs), db2_hints);

  // Weighted pick over dimension objects only.
  double dim_total = 0.0;
  std::vector<double> dim_cumulative;
  for (std::size_t d : layout.dim_objects) {
    dim_total += objects.spec(d).weight;
    dim_cumulative.push_back(dim_total);
  }
  auto pick_dim = [&]() {
    const double x = rng.NextDouble() * dim_total;
    for (std::size_t i = 0; i < dim_cumulative.size(); ++i) {
      if (x < dim_cumulative[i]) return layout.dim_objects[i];
    }
    return layout.dim_objects.back();
  };

  ServerTraceBuilder builder(&trace, info.buffer_pages, target);
  const std::size_t temp = layout.temp_object;
  const std::uint32_t temp_pages = objects.spec(temp).pages;
  PageId temp_cursor = 0;
  PageId prev_run_start = 0;
  std::uint32_t prev_run_len = 0;

  // Query mix: large fact scans with correlated dimension lookups,
  // pure index-lookup queries, and sort spills into the temp area that
  // are written, evicted (replacement writes), and read back.
  while (!builder.Done()) {
    if (rng.Chance(0.55)) {
      // Scan query over one fact table.
      const std::size_t fact =
          layout.fact_objects[rng.Below(layout.fact_objects.size())];
      const std::uint32_t pages = objects.spec(fact).pages;
      const std::uint32_t len = static_cast<std::uint32_t>(
          pages / 10 + rng.Below(pages / 2));
      PageId cursor = static_cast<PageId>(rng.Below(pages));
      const HintSetId scan_hint = objects.hint(fact, kScan);
      for (std::uint32_t i = 0; i < len && !builder.Done(); ++i) {
        builder.LogicalAccess(objects.base(fact) + cursor, scan_hint,
                              /*dirty=*/false);
        cursor = cursor + 1 == pages ? 0 : cursor + 1;
        if (rng.Chance(0.08)) {
          // Correlated nested-loop dimension lookup.
          const std::size_t d = pick_dim();
          builder.LogicalAccess(objects.PickPage(d, rng),
                                objects.hint(d, kLookup),
                                /*dirty=*/false);
        }
      }
      if (rng.Chance(0.4)) {
        // Sort spill: write a fresh temp run now, and read back the
        // *previous* run — by now the intervening scan has pushed it out
        // of the client buffer, so the read-back hits the server on
        // pages it recently saw as replacement writes. This is the
        // write-then-re-read pattern TQ and CLIC both exploit.
        const std::uint32_t run = static_cast<std::uint32_t>(
            200 + rng.Below(2'000));
        const PageId run_start = temp_cursor;
        const HintSetId temp_hint = objects.hint(temp, kInsert);
        for (std::uint32_t i = 0; i < run && !builder.Done(); ++i) {
          builder.LogicalAccess(objects.base(temp) + temp_cursor, temp_hint,
                                /*dirty=*/true);
          temp_cursor = temp_cursor + 1 == temp_pages ? 0 : temp_cursor + 1;
        }
        PageId read_cursor = prev_run_start;
        const HintSetId temp_read = objects.hint(temp, kLookup);
        for (std::uint32_t i = 0; i < prev_run_len && !builder.Done(); ++i) {
          builder.LogicalAccess(objects.base(temp) + read_cursor, temp_read,
                                /*dirty=*/false);
          read_cursor = read_cursor + 1 == temp_pages ? 0 : read_cursor + 1;
        }
        prev_run_start = run_start;
        prev_run_len = run;
      }
    } else {
      // Index-lookup query burst.
      const std::uint64_t lookups = 200 + rng.Below(1'800);
      for (std::uint64_t i = 0; i < lookups && !builder.Done(); ++i) {
        const std::size_t d = pick_dim();
        builder.LogicalAccess(objects.PickPage(d, rng),
                              objects.hint(d, kLookup),
                              /*dirty=*/false);
      }
    }
  }
  trace.requests.resize(target);
  return trace;
}

}  // namespace

const std::vector<NamedTraceInfo>& NamedTraces() {
  static const std::vector<NamedTraceInfo> traces = {
      {"DB2_C60", "DB2", "TPCC", 120'000, 6'000, 2'000'000},
      {"DB2_C300", "DB2", "TPCC", 120'000, 30'000, 2'000'000},
      {"DB2_C540", "DB2", "TPCC", 120'000, 54'000, 2'000'000},
      {"DB2_H80", "DB2", "TPCH", 180'000, 8'000, 1'500'000},
      {"DB2_H400", "DB2", "TPCH", 180'000, 40'000, 1'500'000},
      {"DB2_H720", "DB2", "TPCH", 180'000, 72'000, 1'500'000},
      {"MY_H65", "MySQL", "TPCH", 150'000, 6'500, 1'000'000},
      {"MY_H98", "MySQL", "TPCH", 150'000, 9'800, 1'000'000},
  };
  return traces;
}

Trace MakeNamedTrace(const std::string& name,
                     std::uint64_t target_requests) {
  for (const NamedTraceInfo& info : NamedTraces()) {
    if (info.name != name) continue;
    std::uint64_t target = info.target_requests;
    if (target_requests != 0 && target_requests < target) {
      target = target_requests;
    }
    return info.workload == "TPCC"
               ? MakeOltpTrace(info, target)
               : MakeDssTrace(info, target,
                              info.dbms == "DB2" ? Db2DssLayout()
                                                 : MySqlDssLayout(),
                              info.dbms == "DB2");
  }
  std::fprintf(stderr, "MakeNamedTrace: unknown trace '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace clic
