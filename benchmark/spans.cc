#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

namespace clic_bench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case kSimulate: return "sim.Simulate";
    case kAccessBatch: return "core.AccessBatch";
    case kShardAccess: return "core.shard_AccessBatch";
    case kRoute: return "server.ShardOf";
    case kSubmit: return "server.Submit";
    case kEncode: return "net.AppendBatchFrame";
    case kParse: return "net.FrameParser.Consume";
    case kCall: return "net.WireClient.Call";
    case kFrame: return "gen.frame";
    case kFrameEncode: return "gen.encode";
    case kFrameSend: return "gen.send";
    case kSpanNameCount: break;
  }
  return "unknown";
}

std::vector<std::int64_t> Tracer::SelfNs() const {
  std::vector<std::int64_t> self(spans_.size());
  // (parent, start, end) of every child, clipped to its parent, so
  // overlapping children are merged before subtracting.
  std::vector<std::tuple<std::int32_t, std::int64_t, std::int64_t>> kids;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] = s.end_ns - s.start_ns;
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids.emplace_back(s.parent, lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  std::size_t i = 0;
  while (i < kids.size()) {
    const std::int32_t parent = std::get<0>(kids[i]);
    std::int64_t covered = 0;
    std::int64_t run_lo = std::get<1>(kids[i]);
    std::int64_t run_hi = std::get<2>(kids[i]);
    for (; i < kids.size() && std::get<0>(kids[i]) == parent; ++i) {
      const auto [p, lo, hi] = kids[i];
      if (lo > run_hi) {
        covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += run_hi - run_lo;
    self[static_cast<std::size_t>(parent)] -= covered;
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             std::size_t per_name_limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::size_t written[kSpanNameCount] = {};
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (written[s.name]++ >= per_name_limit) continue;
    // One lane per span name; the causal link is in args.parent.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%" PRId32 ",\"id\":%" PRIu64 ",\"n\":%" PRIu32
                 ",\"aux\":%" PRIu32 "}}",
                 first ? "" : ",", SpanNameText(s.name),
                 static_cast<int>(s.name),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.id, s.n, s.aux);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const std::size_t k = std::min(
      values->size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values->size())));
  std::nth_element(values->begin(), values->begin() + static_cast<long>(k),
                   values->end());
  return (*values)[k];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double BetterQuartile(std::vector<double> values, bool higher_is_better) {
  return Quantile(&values, higher_is_better ? 0.75 : 0.25);
}

}  // namespace clic_bench
