// The traced run: the workload's own trace priced one layer at a time,
// at one batch size and on the fixed topology, with a span around every
// call into a layer. The rungs, bottom up:
//
//   sim     Simulate over the workload's inputs (the whole trace for a
//           replay, each shard's part for a served workload)
//   core    the AccessBatch blocks inside those replays, and AccessBatch
//           over each shard's part at the server's drained-run size B/S
//   server  ShardOf routing, and closed-loop in-process Submit
//   net     AppendBatchFrame and FrameParser::Consume in isolation, and
//           WireClient::Call with one frame in flight
//
// Each rung gets a fixed share of --seconds. A last share alternates
// untraced and traced throughput runs to price the tracing itself.
#include <algorithm>
#include <functional>
#include <string>

#include "bench.h"
#include "server/cache_server.h"
#include "server/net/wire_client.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "wire_load.h"

namespace clic_bench {
namespace {

using clic::PolicyKind;
using clic::Request;
using clic::Trace;
namespace net = clic::server::net;

/// Shares of --seconds per rung; they add up to 1.
constexpr double kSimShare = 0.20;
constexpr double kShardShare = 0.10;
constexpr double kRouteShare = 0.05;
constexpr double kEncodeShare = 0.05;
constexpr double kParseShare = 0.05;
constexpr double kSubmitShare = 0.15;
constexpr double kCallShare = 0.15;
constexpr double kOverheadShare = 0.25;
/// Cap on Submit and Call spans per run, so the span buffer never fills
/// before the overhead rung.
constexpr std::uint64_t kMaxCalls = 200'000;
constexpr int kMakePolicyReps = 5;

/// Runs `pass` repeatedly until `seconds` have passed, at least once.
void ForSeconds(double seconds, const std::function<void()>& pass) {
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    pass();
  } while (NowNs() < end);
}

/// Durations, self times and request counts of the spans of one name
/// that pass `keep`.
struct SpanSum {
  double ns = 0.0;
  double self_ns = 0.0;
  double requests = 0.0;
  std::uint64_t count = 0;
  std::vector<double> us;

  double NsPerRequest() const { return requests > 0 ? ns / requests : 0.0; }
};

SpanSum Sum(const Tracer& tracer, const std::vector<std::int64_t>& self,
            SpanName name,
            const std::function<bool(const Span&)>& keep = nullptr) {
  SpanSum s;
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.name != name || (keep && !keep(sp))) continue;
    const double ns = static_cast<double>(sp.end_ns - sp.start_ns);
    s.ns += ns;
    s.self_ns += static_cast<double>(self[i]);
    s.requests += sp.n;
    ++s.count;
    s.us.push_back(ns / 1e3);
  }
  return s;
}

bool SameRequest(const Request& a, const Request& b) {
  return a.page == b.page && a.hint_set == b.hint_set &&
         a.client == b.client && a.op == b.op && a.write_kind == b.write_kind;
}

}  // namespace

void RunLadder(const Workload& w, const Trace& trace, double seconds,
               Tracer* tracer, Report* rep) {
  const clic::ClicOptions clic = ClicOptionsFor(w);
  const std::size_t batch = ServeBatch(w);
  const Request* reqs = trace.requests.data();
  const std::size_t n = trace.size();
  const std::vector<Trace> parts =
      clic::server::PartitionByShard(trace, kShards);
  const std::size_t shard_pages =
      clic::server::ShardCachePages(kCachePages, kShards);
  // The policies the workload runs: one cache for a replay, one per
  // shard for a served workload.
  std::vector<const Trace*> inputs;
  if (w.wire) {
    for (const Trace& p : parts) inputs.push_back(&p);
  } else {
    inputs.push_back(&trace);
  }
  const std::size_t input_pages = w.wire ? shard_pages : kCachePages;
  auto make_policy = [&](std::size_t pages) {
    return clic::MakePolicy(PolicyKind::kClic, pages, nullptr, clic);
  };

  // ---- sim: building the policies, then Simulate over the inputs.
  std::vector<double> make_ms;
  for (int r = 0; r < kMakePolicyReps; ++r) {
    const std::int64_t t0 = NowNs();
    for (std::size_t k = 0; k < inputs.size(); ++k) make_policy(input_pages);
    make_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  std::uint64_t windows = 0, early = 0;
  double effective = 0.0;
  ForSeconds(kSimShare * seconds, [&] {
    windows = early = 0;
    effective = 0.0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const auto policy = make_policy(input_pages);
      const std::int32_t span =
          tracer->Add(kSimulate, NowNs(), 0, -1, k,
                      static_cast<std::uint32_t>(inputs[k]->size()));
      TimedPolicy timed(*policy, nullptr, tracer, span);
      clic::Simulate(*inputs[k], timed);
      tracer->Close(span, NowNs());
      const auto& cp = static_cast<const clic::ClicPolicy&>(*policy);
      windows += cp.windows_completed();
      early += cp.early_closes();
      effective += static_cast<double>(cp.effective_window()) /
                   static_cast<double>(inputs.size());
    }
  });

  // ---- core: each shard's part at the server's drained-run size.
  const std::size_t run = std::max<std::size_t>(1, batch / kShards);
  std::vector<std::uint8_t> hits(run);
  ForSeconds(kShardShare * seconds, [&] {
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto policy = make_policy(shard_pages);
      const Request* part = parts[s].requests.data();
      const std::size_t m = parts[s].size();
      const std::int64_t t0 = NowNs();
      for (std::size_t pos = 0; pos < m; pos += run) {
        policy->AccessBatch(part + pos, pos, std::min(run, m - pos),
                            hits.data());
      }
      tracer->Add(kShardAccess, t0, NowNs(), -1, s,
                  static_cast<std::uint32_t>(m));
    }
  });

  // ---- server: routing every batch (shard id per request plus the
  // per-shard counts a router sizes its runs with).
  std::vector<std::uint32_t> ids(batch);
  std::uint64_t per_shard[kShards] = {};
  ForSeconds(kRouteShare * seconds, [&] {
    std::fill(std::begin(per_shard), std::end(per_shard), 0);
    const std::int64_t t0 = NowNs();
    for (std::size_t pos = 0; pos < n; pos += batch) {
      const std::size_t m = std::min(batch, n - pos);
      for (std::size_t i = 0; i < m; ++i) {
        ids[i] = static_cast<std::uint32_t>(
            clic::server::ShardOf(reqs[pos + i].page, kShards));
      }
      for (std::size_t i = 0; i < m; ++i) ++per_shard[ids[i]];
    }
    tracer->Add(kRoute, t0, NowNs(), -1, 0, static_cast<std::uint32_t>(n));
  });
  for (std::size_t s = 0; s < kShards; ++s) {
    if (per_shard[s] != parts[s].size()) {
      rep->Fail("ShardOf routed " + std::to_string(per_shard[s]) +
                " requests to shard " + std::to_string(s) +
                ", PartitionByShard " + std::to_string(parts[s].size()));
    }
  }

  // ---- net: the codec in isolation. The first decode is checked
  // against the trace before any timing.
  std::string stream;
  ForSeconds(kEncodeShare * seconds, [&] {
    stream.clear();
    std::uint64_t seq = 0;
    const std::int64_t t0 = NowNs();
    for (std::size_t pos = 0; pos < n; pos += batch) {
      net::AppendBatchFrame(reqs + pos, std::min(batch, n - pos), ++seq,
                            &stream);
    }
    tracer->Add(kEncode, t0, NowNs(), -1, 0, static_cast<std::uint32_t>(n));
  });
  net::ParsedFrame frame;
  auto decode = [&](bool check) {
    net::FrameParser parser(net::kWireMaxBatch);
    const auto* p = reinterpret_cast<const std::uint8_t*>(stream.data());
    std::size_t len = stream.size();
    std::size_t got = 0;
    net::ParseStatus st;
    while ((st = parser.Consume(&p, &len, &frame)) == net::ParseStatus::kFrame) {
      if (check) {
        for (std::size_t i = 0; i < frame.requests.size(); ++i) {
          if (got + i >= n || !SameRequest(frame.requests[i], reqs[got + i])) {
            rep->Fail("frame " + std::to_string(frame.seq) +
                      " does not decode to the requests encoded");
            return got;
          }
        }
      }
      got += frame.requests.size();
    }
    if (st == net::ParseStatus::kError) rep->Fail("parse: " + parser.error());
    return got;
  };
  if (decode(true) != n) rep->Fail("decode lost requests");
  ForSeconds(kParseShare * seconds, [&] {
    const std::int64_t t0 = NowNs();
    decode(false);
    tracer->Add(kParse, t0, NowNs(), -1, 0, static_cast<std::uint32_t>(n));
  });

  // ---- server: closed-loop in-process Submit, one batch in flight, on
  // the topology the wire workloads serve with.
  const net::NetServerOptions serving = ServingOptions(w, false);
  double avg_drained = 0.0;
  {
    clic::server::CacheServer server(serving.server, 1);
    std::uint64_t submits = 0;
    std::size_t pos = 0;
    const std::int64_t end =
        NowNs() + static_cast<std::int64_t>(kSubmitShare * seconds * 1e9);
    while (submits < kMaxCalls && NowNs() < end) {
      if (pos + batch > n) pos = 0;
      const std::int64_t t0 = NowNs();
      const auto r = server.Submit(0, reqs + pos, batch);
      tracer->Add(kSubmit, t0, NowNs(), -1, pos,
                  static_cast<std::uint32_t>(batch));
      rep->attempted += batch;
      if (r != clic::server::SubmitResult::kApplied) rep->failed += batch;
      pos += batch;
      ++submits;
    }
    server.Finish(0);
    server.Shutdown();
    const clic::server::AdmissionStats adm = server.TotalAdmission();
    if (adm.submitted_batches != submits ||
        adm.applied_batches != submits) {
      rep->Fail("in-process server applied " +
                std::to_string(adm.applied_batches) + " of " +
                std::to_string(submits) + " batches");
    }
    avg_drained = static_cast<double>(server.requests_applied()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, server.shard_drains()));
  }

  // ---- net: one frame in flight through WireClient::Call.
  {
    net::NetServer server(serving);
    net::WireClient client;
    if (!client.Connect("127.0.0.1", server.port())) {
      rep->Fail("connect: " + client.error());
    } else {
      std::uint64_t calls = 0;
      std::size_t pos = 0;
      const std::int64_t end =
          NowNs() + static_cast<std::int64_t>(kCallShare * seconds * 1e9);
      while (calls < kMaxCalls && NowNs() < end) {
        if (pos + batch > n) pos = 0;
        const std::int64_t t0 = NowNs();
        const std::uint16_t code = client.Call(reqs + pos, batch);
        tracer->Add(kCall, t0, NowNs(), -1, pos,
                    static_cast<std::uint32_t>(batch));
        rep->attempted += batch;
        ++calls;
        if (code != net::kWireApplied) {
          rep->failed += batch;
          rep->Fail("Call returned " + std::string(net::WireCodeName(code)) +
                    " " + client.error());
          break;
        }
        pos += batch;
      }
      client.Close();
      const net::NetStats st = server.Stats();
      if (st.frames != calls || st.rejected_frames != 0) {
        rep->Fail("server parsed " + std::to_string(st.frames) + " of " +
                  std::to_string(calls) + " frames, rejected " +
                  std::to_string(st.rejected_frames));
      }
      rep->Info("net.frames", static_cast<double>(st.frames));
      rep->Info("net.rejected_frames", static_cast<double>(st.rejected_frames));
    }
    server.Drain();
  }

  // ---- trace.overhead: the workload's throughput measurement, run
  // alternately without and with spans.
  std::vector<double> plain_rps, traced_rps;
  Tracer off;
  if (w.wire) {
    net::NetServer server(serving);
    const std::size_t half = n / kConnections;
    WireConn c0(reqs, half, batch);
    WireConn c1(reqs + half, n - half, batch);
    std::string error;
    if (!c0.Connect(server.port(), &error) ||
        !c1.Connect(server.port(), &error)) {
      rep->Fail(error);
    } else {
      WireLoad plain({&c0, &c1}, &off);
      WireLoad traced({&c0, &c1}, tracer);
      const double seg = kOverheadShare * seconds / 5.0;
      plain.ClosedLoop(kSatDepth, seg);  // warm-up
      for (int i = 0; i < 4; ++i) {
        const bool on = i % 2 == 1;
        const SegmentStats st =
            (on ? traced : plain).ClosedLoop(kSatDepth, seg);
        rep->attempted += st.requests;
        rep->failed += st.failed_requests;
        if (!st.error.empty() || st.frames != st.replies + st.lost) {
          rep->Fail("overhead segment: " + std::to_string(st.replies) +
                    " of " + std::to_string(st.frames) + " frames answered " +
                    st.error);
        }
        (on ? traced_rps : plain_rps)
            .push_back(static_cast<double>(st.window_requests) / st.seconds);
      }
    }
    c0.Close();
    c1.Close();
    server.Drain();
  } else {
    int pass = 0;
    ForSeconds(kOverheadShare * seconds, [&] {
      const bool on = pass++ % 2 == 1;
      const auto policy = make_policy(kCachePages);
      const std::int64_t t0 = NowNs();
      if (on) {
        const std::int32_t span = tracer->Add(
            kSimulate, t0, 0, -1, 0, static_cast<std::uint32_t>(n));
        TimedPolicy timed(*policy, nullptr, tracer, span);
        clic::Simulate(trace, timed);
        tracer->Close(span, NowNs());
      } else {
        clic::Simulate(trace, *policy);
      }
      const double s = static_cast<double>(NowNs() - t0) / 1e9;
      (on ? traced_rps : plain_rps).push_back(static_cast<double>(n) / s);
    });
  }

  // ---- per-layer numbers from the spans.
  const std::vector<std::int64_t> self = tracer->SelfNs();
  const SpanSum sim = Sum(*tracer, self, kSimulate);
  const SpanSum access = Sum(*tracer, self, kAccessBatch,
                             [](const Span& s) { return s.aux == 0; });
  const double access_ns = access.NsPerRequest();
  const SpanSum closing = Sum(*tracer, self, kAccessBatch,
                              [](const Span& s) { return s.aux > 0; });
  double closes = 0.0;
  for (const Span& s : tracer->spans()) {
    if (s.name == kAccessBatch) closes += s.aux;
  }
  const SpanSum shard = Sum(*tracer, self, kShardAccess);
  const SpanSum route = Sum(*tracer, self, kRoute);
  SpanSum submit = Sum(*tracer, self, kSubmit);
  const SpanSum encode = Sum(*tracer, self, kEncode);
  const SpanSum parse = Sum(*tracer, self, kParse);
  SpanSum call = Sum(*tracer, self, kCall);
  const double submit_p50 = Quantile(&submit.us, 0.50);
  const double submit_p99 = Quantile(&submit.us, 0.99);
  const double call_p50 = Quantile(&call.us, 0.50);
  const double call_p99 = Quantile(&call.us, 0.99);

  rep->Add("sim.make_policy_ms", Median(make_ms), "ms", make_ms.size());
  rep->Add("sim.simulate_ns_per_req", sim.NsPerRequest(), "ns/req",
           sim.count);
  rep->Add("sim.self_ns_per_req",
           sim.requests > 0 ? sim.self_ns / sim.requests : 0.0, "ns/req",
           sim.count);
  rep->Add("core.access_ns_per_req", access_ns, "ns/req", access.count);
  rep->Add("core.window_close_us",
           closes > 0
               ? (closing.ns - closing.requests * access_ns) / closes / 1e3
               : 0.0,
           "us", static_cast<std::uint64_t>(closes));
  rep->Add("core.windows_completed", static_cast<double>(windows), "count", 1);
  rep->Add("core.effective_window", effective, "req", 1);
  rep->Info("core.early_closes", static_cast<double>(early));
  rep->Add("core.shard_access_ns_per_req", shard.NsPerRequest(), "ns/req",
           shard.count);
  rep->Add("server.route_ns_per_req", route.NsPerRequest(), "ns/req",
           route.count);
  rep->Add("server.submit_us_p50", submit_p50, "us", submit.count);
  rep->Add("server.submit_us_p99", submit_p99, "us", submit.count);
  rep->Add("server.ns_per_req", submit.NsPerRequest(), "ns/req",
           submit.count);
  rep->Add("server.self_ns_per_req",
           submit.NsPerRequest() - shard.NsPerRequest(), "ns/req",
           submit.count);
  rep->Add("server.avg_drained_batch", avg_drained, "req", 1);
  rep->Add("net.encode_ns_per_req", encode.NsPerRequest(), "ns/req",
           encode.count);
  rep->Add("net.parse_ns_per_req", parse.NsPerRequest(), "ns/req",
           parse.count);
  rep->Add("net.call_us_p50", call_p50, "us", call.count);
  rep->Add("net.call_us_p99", call_p99, "us", call.count);
  rep->Add("net.self_ns_per_req",
           (call_p50 - submit_p50) * 1e3 / static_cast<double>(batch),
           "ns/req", call.count);
  rep->Add("trace.overhead", Median(plain_rps) / Median(traced_rps) - 1.0,
           "ratio", plain_rps.size() + traced_rps.size());
  rep->Info("call_ns_per_req", call_p50 * 1e3 / static_cast<double>(batch));
  rep->Info("spans", static_cast<double>(tracer->spans().size()));
  rep->Info("spans_dropped", static_cast<double>(tracer->dropped()));
}

}  // namespace clic_bench
