// Network front-end contract tests over real loopback sockets: frames
// apply through the ClientPort path with exact wire + admission
// ledgers, malformed input fails closed with a typed error and a
// connection close, the connection table sheds at accept time, the
// slowloris deadline evicts stuck partial frames, graceful drain
// flushes in-flight frames into the `stopped` bucket, the
// deterministic wire mode is bit-identical to per-shard sequential
// Simulate(), pipelined bursts are answered once each, in order, in
// coalesced writes, a client that half-closes still gets every reply, a
// stalled connection does not hold up another on the same io thread,
// the wire client fails closed on an extra or out-of-order reply, and
// misbehaving peers leave the healthy clients' ledgers exact.
#include "server/net/net_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/trace.h"
#include "server/cache_server.h"
#include "server/net/wire_client.h"
#include "sim/simulator.h"
#include "tests/synthetic_trace.h"

namespace clic::server::net {
namespace {

NetServerOptions SmallServer() {
  NetServerOptions opts;
  opts.server.shards = 2;
  opts.server.cache_pages = 64;
  opts.conn_limit = 4;
  return opts;
}

int ConnectRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until one reply frame parses (or EOF/timeout); returns the
/// wire code, or -1 on EOF before a frame.
int ReadReplyCode(int fd) {
  FrameParser parser(kWireMaxBatch);
  ParsedFrame frame;
  std::uint8_t buf[256];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) return -1;
    const std::uint8_t* p = buf;
    std::size_t len = static_cast<std::size_t>(r);
    const ParseStatus st = parser.Consume(&p, &len, &frame);
    if (st == ParseStatus::kFrame) return frame.code;
    if (st == ParseStatus::kError) return -2;
  }
}

bool ReadEof(int fd) {
  std::uint8_t buf[64];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r == 0) return true;
    if (r < 0) return false;
  }
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads reply frames until `want` have parsed, or EOF / a malformed
/// byte ends the stream early.
std::vector<ParsedFrame> ReadReplies(int fd, std::size_t want) {
  FrameParser parser(kWireMaxBatch);
  std::vector<ParsedFrame> out;
  ParsedFrame frame;
  std::uint8_t buf[4096];
  while (out.size() < want) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;
    const std::uint8_t* p = buf;
    std::size_t len = static_cast<std::size_t>(r);
    for (;;) {
      const ParseStatus st = parser.Consume(&p, &len, &frame);
      if (st == ParseStatus::kNeedMore) break;
      if (st == ParseStatus::kError) return out;
      out.push_back(frame);
    }
  }
  return out;
}

/// Batch frames [first_seq, first_seq + frames) over consecutive
/// `batch`-sized slices of `reqs`, concatenated for one write().
std::string EncodeFrames(const Request* reqs, std::size_t total,
                         std::size_t batch, std::uint64_t first_seq) {
  std::string out;
  std::uint64_t seq = first_seq;
  for (std::size_t off = 0; off < total; off += batch) {
    AppendBatchFrame(reqs + off, std::min(batch, total - off), seq++, &out);
  }
  return out;
}

/// `n` requests on distinct pages that all route to `shard` of `shards`.
std::vector<Request> RequestsOnShard(std::size_t shard, std::size_t shards,
                                     std::size_t n) {
  std::vector<Request> out;
  for (PageId page = 0; out.size() < n; ++page) {
    if (ShardOf(page, shards) != shard) continue;
    Request r;
    r.page = page;
    out.push_back(r);
  }
  return out;
}

bool UnderThreadSanitizer() {
#if defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

/// Expects exactly `n` status replies with seq first_seq.. ascending.
void ExpectOrderedStatus(const std::vector<ParsedFrame>& replies,
                         std::size_t n, std::uint64_t first_seq) {
  ASSERT_EQ(replies.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(replies[i].type, FrameType::kStatus) << "reply " << i;
    EXPECT_EQ(replies[i].seq, first_seq + i) << "reply " << i;
  }
}

TEST(NetServerTest, AppliesBatchesWithExactLedgers) {
  const Trace trace = MakeSynthetic("net_apply", 1, 4000);
  NetServer server(SmallServer());
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  std::uint64_t sent = 0;
  for (std::size_t off = 0; off < trace.requests.size(); off += 64) {
    const std::size_t n = std::min<std::size_t>(64, trace.size() - off);
    ASSERT_EQ(client.Call(&trace.requests[off], n), kWireApplied)
        << client.error();
    sent += n;
  }
  client.Close();
  server.Drain();
  const NetStats net = server.Stats();
  EXPECT_EQ(net.accepted, 1u);
  EXPECT_EQ(net.frame_requests, sent);
  EXPECT_EQ(net.rejected_frames, 0u);
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(adm.submitted_requests, sent);
  EXPECT_EQ(adm.applied_requests, sent);
  EXPECT_EQ(server.cache().requests_applied(), sent);
}

TEST(NetServerTest, MalformedFrameGetsTypedErrorThenClose) {
  NetServer server(SmallServer());
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // 32 bytes of garbage: bad magic at header time.
  const std::string garbage(32, '\x5A');
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  EXPECT_EQ(ReadReplyCode(fd), kWireBadMagic);
  EXPECT_TRUE(ReadEof(fd));  // fail closed: the connection dies
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().rejected_frames, 1u);
  EXPECT_EQ(server.cache().requests_applied(), 0u);
}

TEST(NetServerTest, PatchedGiantLengthRejectedBeforePayload) {
  NetServerOptions opts = SmallServer();
  opts.max_batch = 16;
  NetServer server(opts);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // A consistent header claiming 0xFFFF requests (786KB payload): the
  // server must reject from the header alone — we never send a payload
  // byte, so anything other than header-time rejection would hang here.
  Request r;
  std::string frame;
  AppendBatchFrame(&r, 1, 1, &frame);
  frame[6] = static_cast<char>(0xFF);
  frame[7] = static_cast<char>(0xFF);
  const std::uint32_t giant = 0xFFFFu * 12u;
  for (int i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<char>((giant >> (8 * i)) & 0xFF);
  }
  ASSERT_EQ(::write(fd, frame.data(), kFrameHeaderBytes),
            static_cast<ssize_t>(kFrameHeaderBytes));
  EXPECT_EQ(ReadReplyCode(fd), kWireBadCount);
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().rejected_frames, 1u);
}

TEST(NetServerTest, FullConnectionTableShedsAtAccept) {
  NetServerOptions opts = SmallServer();
  opts.conn_limit = 1;
  NetServer server(opts);
  WireClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  // Prove the first connection is actually registered before racing a
  // second one against it.
  Request r;
  ASSERT_EQ(first.Call(&r, 1), kWireApplied);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ReadReplyCode(fd), kWireServerBusy);
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  first.Close();
  server.Drain();
  EXPECT_EQ(server.Stats().accept_shed, 1u);
  EXPECT_EQ(server.Stats().accepted, 1u);
}

TEST(NetServerTest, SlowlorisPartialFrameEvicted) {
  NetServerOptions opts = SmallServer();
  opts.read_timeout_ms = 40.0;
  NetServer server(opts);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // Send half a header and then stall: the slowloris case.
  Request r;
  std::string frame;
  AppendBatchFrame(&r, 1, 1, &frame);
  ASSERT_EQ(::write(fd, frame.data(), 10), 10);
  EXPECT_EQ(ReadReplyCode(fd), kWireReadTimeout);
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().evicted_read, 1u);
}

TEST(NetServerTest, HealthyConnectionUnaffectedByDeadline) {
  // A connection that always completes its frames must never trip the
  // partial-frame timer, even when it pauses BETWEEN frames far longer
  // than the read deadline.
  NetServerOptions opts = SmallServer();
  opts.read_timeout_ms = 30.0;
  NetServer server(opts);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  Request r;
  ASSERT_EQ(client.Call(&r, 1), kWireApplied);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_EQ(client.Call(&r, 1), kWireApplied) << client.error();
  client.Close();
  server.Drain();
  EXPECT_EQ(server.Stats().evicted_read, 0u);
}

TEST(NetServerTest, DrainFlushesInFlightFramesToStopped) {
  NetServer server(SmallServer());
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // Complete one frame so the connection is live, then write another
  // whole frame and drain before reading its reply: the drain pass must
  // answer it `stopped` (or have applied it just before the stop), and
  // the admission ledger must stay exact either way.
  Request r;
  std::string frame;
  AppendBatchFrame(&r, 1, 1, &frame);
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(ReadReplyCode(fd), kWireApplied);
  std::string second;
  AppendBatchFrame(&r, 1, 2, &second);
  ASSERT_EQ(::write(fd, second.data(), second.size()),
            static_cast<ssize_t>(second.size()));
  server.Drain();
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_TRUE(adm.Balanced()) << adm.Describe();
  const NetStats net = server.Stats();
  // The second frame was either applied before the stop or flushed by
  // the drain pass — never lost.
  EXPECT_EQ(net.frames, adm.submitted_batches);
  ::close(fd);
}

// A client that half-closes right after a burst still gets every reply
// before the server's FIN: at EOF the frames still in flight (held
// behind a 30 ms stall on shard 0 here) are retired and flushed, in
// order, before the close.
TEST(NetServerTest, HalfClosedClientGetsEveryReply) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan("stall:shard=0,after=0,drains=1,ms=30",
                                    &plan, &error))
      << error;
  NetServerOptions opts = SmallServer();
  opts.server.fault = &plan;
  NetServer server(opts);
  const std::size_t frames = 16;
  const Trace trace = MakeSynthetic("net_half_close", 29, frames * 8, 1);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      WriteAll(fd, EncodeFrames(trace.requests.data(), frames * 8, 8, 1)));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::vector<ParsedFrame> replies = ReadReplies(fd, frames);
  ExpectOrderedStatus(replies, frames, 1);
  for (const ParsedFrame& reply : replies) {
    EXPECT_EQ(reply.code, kWireApplied) << "seq " << reply.seq;
  }
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  server.Drain();
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(adm.applied_batches, frames);
  EXPECT_TRUE(adm.Balanced()) << adm.Describe();
}

TEST(NetServerTest, DeterministicWireMatchesPartitionedSimulate) {
  const Trace trace = MakeSynthetic("net_determinism", 7, 6000, 3);
  ServerOptions sopts;
  sopts.shards = 4;
  sopts.cache_pages = 96;
  sopts.deterministic = true;

  NetServerOptions nopts;
  nopts.server = sopts;
  nopts.conn_limit = 3;
  nopts.io_threads = 1;
  NetServer server(nopts);

  WireLoadOptions wopts;
  wopts.port = server.port();
  wopts.clients = 3;
  wopts.batch_size = 32;
  wopts.deterministic = true;
  const WireLoadResult wire = RunWireLoad(trace, wopts);
  server.Drain();
  EXPECT_EQ(wire.applied_requests, trace.requests.size());
  EXPECT_EQ(wire.conn_lost_batches, 0u);
  // The drivers keep up to 16 frames in flight, so the server reads
  // several per chunk and answers them with one write.
  EXPECT_LT(server.Stats().reply_writes, server.Stats().frames);

  EXPECT_EQ(ResultMismatch(server.cache().Snapshot(),
                           PartitionedSimulate(trace, sopts)),
            "");
}

TEST(NetServerTest, DeterministicModeRejectsMultipleIoThreads) {
  NetServerOptions opts = SmallServer();
  opts.server.deterministic = true;
  opts.io_threads = 2;
  EXPECT_THROW(NetServer{opts}, std::invalid_argument);
}

TEST(NetServerTest, NetFaultsPreserveDecisionsAndCount) {
  const Trace trace = MakeSynthetic("net_chaos", 3, 5000, 2);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(
      "net:torn-write=3,partial-read=4,accept-stall=2,stall-ms=1", &plan,
      &error))
      << error;

  ServerOptions sopts;
  sopts.shards = 2;
  sopts.cache_pages = 64;
  sopts.deterministic = true;

  NetServerOptions nopts;
  nopts.server = sopts;
  nopts.server.fault = &plan;
  nopts.conn_limit = 2;
  NetServer server(nopts);

  WireLoadOptions wopts;
  wopts.port = server.port();
  wopts.clients = 2;
  wopts.batch_size = 32;
  wopts.deterministic = true;
  const WireLoadResult wire = RunWireLoad(trace, wopts);
  server.Drain();

  // Torn writes / partial reads / accept stalls re-chunk or delay
  // bytes; every decision must match the fault-free baseline exactly.
  EXPECT_EQ(wire.applied_requests, trace.requests.size());
  const NetStats net = server.Stats();
  EXPECT_GT(net.torn_writes, 0u);
  EXPECT_GT(net.partial_reads, 0u);
  EXPECT_GT(net.accept_stalls, 0u);
  EXPECT_EQ(ResultMismatch(server.cache().Snapshot(),
                           PartitionedSimulate(trace, sopts)),
            "");
}

// Pipelining: more frames than the pipeline holds, all in one write and
// each spanning every shard, come back as one in-order status per frame,
// in fewer write() calls than frames.
TEST(NetServerPipelineTest, BurstAcrossEveryShardRepliesInOrder) {
  NetServerOptions opts = SmallServer();
  opts.server.shards = 4;
  NetServer server(opts);
  // Two pages per shard per frame, different pages in every frame.
  const std::size_t frames = 3 * CacheServer::kPipelineDepth + 1;
  std::vector<std::vector<Request>> by_shard;
  for (std::size_t s = 0; s < 4; ++s) {
    by_shard.push_back(RequestsOnShard(s, 4, 2 * frames));
  }
  std::vector<Request> reqs;
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t k = 0; k < 2; ++k) {
        reqs.push_back(by_shard[s][2 * f + k]);
      }
    }
  }
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  const std::string burst = EncodeFrames(reqs.data(), reqs.size(), 8, 1);
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  const std::vector<ParsedFrame> replies = ReadReplies(fd, frames);
  ExpectOrderedStatus(replies, frames, 1);
  for (const ParsedFrame& reply : replies) {
    EXPECT_EQ(reply.code, kWireApplied) << "seq " << reply.seq;
  }
  ::close(fd);
  server.Drain();
  const NetStats net = server.Stats();
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(net.frames, frames);
  EXPECT_EQ(net.frames, adm.submitted_batches);
  EXPECT_EQ(adm.applied_batches, frames);
  EXPECT_EQ(server.cache().requests_applied(), reqs.size());
  EXPECT_LT(net.reply_writes, net.frames) << "replies were not coalesced";
}

// One connection streams a whole trace in bursts of 40 frames without
// waiting for replies: a deterministic server still applies it
// bit-identically to per-shard sequential Simulate, with and without
// torn writes and partial reads reshaping the byte stream.
TEST(NetServerPipelineTest, DeterministicBurstsMatchPartitionedSimulate) {
  const Trace trace = MakeSynthetic("net_burst", 13, 6000, 3);
  for (const char* spec : {"", "net:torn-write=3,partial-read=4"}) {
    SCOPED_TRACE(std::string("fault plan '") + spec + "'");
    fault::FaultPlan plan;
    std::string error;
    if (*spec != '\0') {
      ASSERT_TRUE(fault::ParseFaultPlan(spec, &plan, &error)) << error;
    }
    ServerOptions sopts;
    sopts.shards = 4;
    sopts.cache_pages = 96;
    sopts.policy = PolicyKind::kClic;
    sopts.clic.window = 500;
    sopts.deterministic = true;
    NetServerOptions nopts;
    nopts.server = sopts;
    nopts.server.fault = &plan;
    nopts.conn_limit = 1;
    NetServer server(nopts);

    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    const std::size_t batch = 32;
    const std::size_t burst_requests = 40 * batch;
    std::size_t frames = 0;
    for (std::size_t off = 0; off < trace.size(); off += burst_requests) {
      const std::size_t n = std::min(burst_requests, trace.size() - off);
      ASSERT_TRUE(WriteAll(fd, EncodeFrames(&trace.requests[off], n, batch,
                                            frames + 1)));
      frames += (n + batch - 1) / batch;
    }
    const std::vector<ParsedFrame> replies = ReadReplies(fd, frames);
    ExpectOrderedStatus(replies, frames, 1);
    for (const ParsedFrame& reply : replies) {
      EXPECT_EQ(reply.code, kWireApplied) << "seq " << reply.seq;
    }
    ::close(fd);
    server.Drain();

    EXPECT_EQ(ResultMismatch(server.cache().Snapshot(),
                             PartitionedSimulate(trace, sopts)),
              "");
    if (plan.net_torn_write_every > 0) {
      EXPECT_GT(server.Stats().torn_writes, 0u);
      EXPECT_GT(server.Stats().partial_reads, 0u);
    }
  }
}

// Drain() racing a burst that is still being served: every frame gets
// exactly one reply, applied or stopped, and the ledger balances.
TEST(NetServerPipelineTest, DrainAnswersEveryFrameOfABurstOnce) {
  const Trace trace = MakeSynthetic("net_drain_burst", 19, 41 * 8, 1);
  NetServer server(SmallServer());
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // One round trip first, so the connection is adopted before Drain.
  ASSERT_TRUE(WriteAll(fd, EncodeFrames(trace.requests.data(), 8, 8, 1)));
  ASSERT_EQ(ReadReplyCode(fd), kWireApplied);
  const std::size_t frames = 40;
  ASSERT_TRUE(WriteAll(fd, EncodeFrames(trace.requests.data() + 8,
                                        frames * 8, 8, 2)));
  server.Drain();
  const std::vector<ParsedFrame> replies = ReadReplies(fd, frames);
  ExpectOrderedStatus(replies, frames, 2);
  for (const ParsedFrame& reply : replies) {
    EXPECT_TRUE(reply.code == kWireApplied || reply.code == kWireStopped)
        << "seq " << reply.seq << " got " << WireCodeName(reply.code);
  }
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(adm.submitted_batches, frames + 1);
  EXPECT_EQ(adm.applied_batches + adm.stopped_batches, frames + 1);
  EXPECT_EQ(server.Stats().frames, adm.submitted_batches);
  EXPECT_TRUE(adm.Balanced()) << adm.Describe();
}

// Head of line: one io thread owns two connections, and A's frame
// sits behind a 300 ms stall on shard 0 while B's frame, on shard 1,
// arrives right after it (within the io thread's spin budget). B is
// answered at once, before A; the io thread's later wait for A, once a
// budget passes with nothing else to do, is counted.
TEST(NetServerPipelineTest, StalledConnectionDoesNotHoldUpAnother) {
  if (UnderThreadSanitizer()) {
    GTEST_SKIP() << "B's frame must reach the io thread within one 200 us "
                    "spin budget of A's, which TSan's slowdown does not "
                    "always allow";
  }
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan("stall:shard=0,after=0,drains=1,ms=300",
                                    &plan, &error))
      << error;
  NetServerOptions opts = SmallServer();
  opts.server.consumers = 2;
  opts.server.fault = &plan;
  NetServer server(opts);
  const std::vector<Request> on_stalled = RequestsOnShard(0, 2, 8);
  const std::vector<Request> on_free = RequestsOnShard(1, 2, 8);
  const int a = ConnectRaw(server.port());
  const int b = ConnectRaw(server.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // One round trip each on the unstalled shard, so the io thread has
  // adopted both connections before the stall starts.
  for (const int fd : {a, b}) {
    ASSERT_TRUE(WriteAll(fd, EncodeFrames(on_free.data(), 8, 8, 1)));
    ASSERT_EQ(ReadReplyCode(fd), kWireApplied);
  }
  ASSERT_TRUE(WriteAll(a, EncodeFrames(on_stalled.data(), 8, 8, 2)));
  const auto b_sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteAll(b, EncodeFrames(on_free.data(), 8, 8, 2)));
  ASSERT_EQ(ReadReplyCode(b), kWireApplied);
  const double b_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - b_sent)
                          .count();
  std::uint8_t byte = 0;
  EXPECT_LT(::recv(a, &byte, 1, MSG_DONTWAIT | MSG_PEEK), 0)
      << "A's stalled frame was answered before B's";
  EXPECT_LT(b_ms, 100.0) << "B's reply waited for A's stalled frame";
  EXPECT_EQ(ReadReplyCode(a), kWireApplied);
  ::close(a);
  ::close(b);
  server.Drain();
  EXPECT_GE(server.Stats().blocked_retires, 1u);
}

// Two real misbehaving peers against healthy wire load: while
// RunWireLoad drives 4 clients, a slowloris peer sends a full header
// plus 4 payload bytes and goes silent until the 5 ms read deadline
// evicts it, and a churn peer sends a checksum-corrupted frame, takes
// its typed error and close, and reconnects every millisecond. Their
// traffic lands only in the wire-edge counters: every request of a
// well-formed frame reached Submit, the healthy clients' ledger
// balances, and so does the server's.
TEST(NetServerTest, AntagonistsLeaveWireLedgersExact) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kBatch = 256;
  const Trace trace =
      MakeSynthetic("net_antagonists", 23, kClients * 100 * kBatch);
  NetServerOptions opts;
  opts.io_threads = 2;
  opts.conn_limit = kClients + 2 + 4;  // both antagonists, plus headroom
  opts.read_timeout_ms = 5.0;
  opts.server.shards = 4;
  opts.server.cache_pages = 12'000;
  opts.server.consumers = 4;
  NetServer server(opts);

  std::string frame;
  AppendBatchFrame(trace.requests.data(), kBatch, 1, &frame);
  const std::string slow_prefix = frame.substr(0, kFrameHeaderBytes + 4);
  std::string corrupt = frame;
  corrupt[kFrameHeaderBytes + 1] ^= 0x5A;
  std::atomic<bool> stop{false};
  // Connects, sends `bytes`, and waits for the server to close the
  // connection; a receive timeout keeps a server that never does from
  // hanging the test.
  const auto antagonist = [&](const std::string& bytes) {
    while (!stop.load(std::memory_order_acquire)) {
      const int fd = ConnectRaw(server.port());
      if (fd >= 0) {
        const timeval one_second{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &one_second,
                     sizeof(one_second));
        if (WriteAll(fd, bytes)) ReadEof(fd);
        ::close(fd);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread slowloris(antagonist, slow_prefix);
  std::thread churn(antagonist, corrupt);

  WireLoadOptions load;
  load.port = server.port();
  load.clients = kClients;
  load.batch_size = kBatch;
  const WireLoadResult wire = RunWireLoad(trace, load);
  // The antagonists stop only once both have bitten: a ledger checked
  // against peers that never misbehaved proves nothing.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  NetStats net = server.Stats();
  while ((net.evicted_read == 0 || net.rejected_requests == 0) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    net = server.Stats();
  }
  stop.store(true, std::memory_order_release);
  slowloris.join();
  churn.join();
  EXPECT_GE(net.evicted_read, 1u) << "the slowloris peer was never evicted";
  EXPECT_GE(net.rejected_requests, 1u) << "no corrupted frame was rejected";
  server.Drain();

  net = server.Stats();
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(net.frame_requests, adm.submitted_requests);
  EXPECT_EQ(net.frames, adm.submitted_batches);
  EXPECT_TRUE(wire.Balanced()) << wire.Describe();
  EXPECT_TRUE(adm.Balanced()) << adm.Describe();
  EXPECT_GT(adm.applied_requests, 0u);
}

// A reply stream the client's frames do not account for must fail
// closed instead of being misattributed or silently dropped: a frame
// past the reply to the last frame sent, or a status whose seq is not
// the oldest unanswered frame's.
TEST(WireClientTest, ExtraFrameAfterReplyFailsClosed) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t sa_len = sizeof(sa);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &sa_len);

  const struct {
    std::vector<std::uint64_t> reply_seqs;
    const char* error;
  } cases[] = {
      {{1, 2}, "unexpected extra frame after reply"},
      {{2}, "reply out of order: status for frame 2, oldest unanswered is 1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.error);
    WireClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(sa.sin_port)))
        << client.error();
    const int peer = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(peer, 0);
    // The replies go out in one write, queued before the call reads.
    std::string replies;
    for (const std::uint64_t seq : c.reply_seqs) {
      AppendReplyFrame(FrameType::kStatus, kWireApplied, seq, &replies);
    }
    ASSERT_TRUE(WriteAll(peer, replies));
    Request r;
    EXPECT_EQ(client.Call(&r, 1), WireClient::kWireConnClosed);
    EXPECT_EQ(client.error(), c.error);
    EXPECT_FALSE(client.connected());
    ::close(peer);
  }
  ::close(listener);
}

}  // namespace
}  // namespace clic::server::net
