// Epoll network front end for the sharded cache server: one acceptor
// thread plus N connection (io) threads parse wire frames
// (server/net/wire_format.h) into request batches and funnel them
// through the existing ClientPort submit path, mapping every admission
// outcome back to a wire status code so backpressure is visible to
// clients instead of silent.
//
// Topology and ownership: each accepted connection claims one
// CacheServer client port (the connection table is bounded by
// conn_limit == the server's port count; a full table sheds at accept
// time with a typed server_busy reply). A connection is owned by
// exactly one io thread — its `io` ThreadRole capability guards all
// per-connection parse/write state, so the data path (read -> parse ->
// Begin ... Await -> reply) takes no mutex at all. Mutexes survive only
// on the control path: the acceptor handing a new connection to its io
// thread's inbox, and the free-slot list at accept/close. That honours
// the CacheServer producer contract (at most one producer thread per
// client id): only the owning io thread ever submits on a connection's
// slot, and slot recycling hands the port to the next connection
// through the free-list mutex (a happens-before edge).
//
// Waiting: each io loop iteration is an event pass, which gives every
// ready connection one read() and Begins each complete frame in it,
// then a retire pass, which answers the completed front of every
// connection's pipeline without waiting. The rule the io thread's
// freedom from lost wake-ups rests on: it never sleeps in epoll_wait
// while one of its own frames is in flight, since no consumer can wake
// it there. While any frame is in flight it polls epoll with timeout 0
// and yields; after one spin budget (kSpinBudget, server/parker.h) in
// which no frame was read or retired it waits for them in
// CacheServer::Await, whose Parker a finishing consumer does wake. With
// nothing in flight it polls for one budget after its last progress,
// so a frame that follows within the budget costs no wake-up, and then
// blocks in epoll_wait. It adopts new connections when its wake
// eventfd fires, never on the polling path.
//
// Pipelining: a connection keeps up to CacheServer::kPipelineDepth
// frames in flight, one per closed-loop slot of its port. Each frame
// is parsed into its own slot and Begun as soon as it parses; the
// oldest is Awaited only when the pipeline is full, and the rest are
// retired by the retire passes as they complete, so one connection's
// slow frame never holds up another connection's completed one.
// Replies are queued strictly in frame order (FIFO, the order a
// one-frame-at-a-time server would send them) and written once the
// last frame of a read() chunk is retired: one flush per chunk, so a
// client that sends several frames per write gets their replies back
// in about one write. Per-shard apply order is unchanged: each
// (client, consumer) ring is FIFO. Every in-flight frame is retired
// and answered before any error reply or close, at EOF included, so no
// batch outlives its connection.
//
// Robustness model:
//   * fail-closed parsing — a malformed frame gets a typed error reply
//     and the connection closes; every length is cross-checked and
//     config-bounded before allocation (see wire_format.h);
//   * a per-connection read deadline — a partial frame older than
//     read_timeout_ms is slowloris-evicted (typed read_timeout reply,
//     close);
//   * bounded connection table — accept-time shedding, never unbounded
//     connection state;
//   * graceful drain — Drain() stops accepting, stops the cache server
//     (so every late submit lands in the ledger's `stopped` bucket with
//     exact accounting), flushes frames already received into that
//     bucket via the normal submit path, replies `stopped`, closes.
//
// Deterministic mode (options.server.deterministic): one io thread,
// slots assigned in accept order, and a cleanly closed connection
// Finish()es its port — so sequentially driven connections replay
// exactly the strict-client-order stream the deterministic consumer
// expects, and wire-level serving verifies bit-identical against
// per-shard sequential Simulate() (clic_serve --connect --verify).
//
// Fault injection: the plan's net: clauses (fault_injection.h) fire on
// logical counters — reply index (torn writes), read-event index
// (partial reads), accept index (resets, accept stalls) — never on
// wall-clock time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "server/cache_server.h"
#include "server/net/wire_format.h"

namespace clic::server::net {

struct NetServerOptions {
  /// IPv4 address to bind (dotted quad). Loopback by default: serving
  /// beyond localhost is an explicit decision.
  std::string listen_addr = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Connection (io) threads; each owns a disjoint set of connections.
  unsigned io_threads = 1;
  /// Max concurrent connections == cache-server client ports. A full
  /// table sheds new connections at accept time (server_busy + close).
  std::size_t conn_limit = 64;
  /// > 0: evict a connection whose partial frame is older than this
  /// (the slowloris timer). 0 = no read deadline.
  double read_timeout_ms = 0.0;
  /// Frame parser bound: max requests per batch frame.
  std::size_t max_batch = 4096;
  /// Embedded cache-server configuration; the fault plan (including
  /// net: clauses) rides on server.fault.
  ServerOptions server;
};

/// Wire-edge accounting, disjoint from (and additive to) the cache
/// server's admission ledger: rejected_* count frames that failed
/// parsing and therefore never reached Submit.
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t accept_shed = 0;        // connections refused: table full
  std::uint64_t frames = 0;             // well-formed batch frames
  std::uint64_t frame_requests = 0;
  std::uint64_t rejected_frames = 0;    // malformed frames (typed error)
  std::uint64_t rejected_requests = 0;  // requests inside them (0 when the
                                        // header itself was unreadable)
  std::uint64_t evicted_read = 0;       // slowloris evictions
  std::uint64_t drained_frames = 0;     // frames flushed to stopped at drain
  std::uint64_t resets_injected = 0;    // net:reset fault closes
  std::uint64_t torn_writes = 0;        // net:torn-write activations
  std::uint64_t partial_reads = 0;      // net:partial-read activations
  std::uint64_t accept_stalls = 0;      // net:accept-stall activations
  /// write() calls that carried reply bytes; frames / reply_writes is
  /// the reply coalescing pipelining achieves.
  std::uint64_t reply_writes = 0;
  /// Frames whose reply an io thread had to wait for, its other
  /// connections unserved meanwhile: retired before they had completed
  /// (a full pipeline, a spin budget with no progress, or a close).
  std::uint64_t blocked_retires = 0;
};

class NetServer {
 public:
  /// Binds, listens, starts the acceptor and io threads (and the
  /// embedded CacheServer's consumers). Throws std::invalid_argument
  /// for unusable options (zero io threads / conn limit, more than one
  /// io thread in deterministic mode, unparseable listen address) and
  /// std::runtime_error when bind/listen fails.
  explicit NetServer(const NetServerOptions& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  std::uint16_t port() const { return port_; }

  /// Graceful drain (Stop/SIGTERM path): stop accepting, stop the cache
  /// server (late submits -> ledger `stopped`, exact accounting), flush
  /// frames already received into that bucket through the normal submit
  /// path with `stopped` replies, close every connection, join all
  /// threads. Idempotent; called by the destructor if needed.
  void Drain();

  /// The embedded cache server — stats are quiescent after Drain().
  const CacheServer& cache() const { return *server_; }

  /// Wire-edge counters; quiescent after Drain().
  NetStats Stats() const;

 private:
  /// One accepted connection. Owned by exactly one io thread; the `io`
  /// ThreadRole capability is that ownership made compile-checkable —
  /// every function touching the parse/write state declares
  /// CLIC_REQUIRES(conn.io), and only the owning io thread (or the
  /// accept-time setup that runs before the handoff) acquires it.
  struct Connection {
    /// "I am this connection's owning io thread" (or its pre-handoff
    /// acceptor setup / post-join teardown).
    ThreadRole io;
    int fd = -1;
    std::size_t slot = 0;          // cache-server client port
    std::uint64_t accept_index = 0;  // 1-based; drives net:reset/stall
    int epfd = -1;                   // owning thread's epoll fd (set at adoption)
    FrameParser parser CLIC_GUARDED_BY(io);
    /// One pipelined frame: its decode buffer (which a single-shard
    /// batch is served from zero-copy, so it must outlive the Await),
    /// what Begin returned for it, and whether it is the last frame of
    /// its read() chunk, whose retirement flushes the queued replies.
    struct InFlight {
      ParsedFrame frame;
      SubmitResult begun = SubmitResult::kApplied;
      bool ends_chunk = false;
    };
    /// FIFO of in-flight frames; entry i uses CacheServer closed-loop
    /// slot i.
    std::array<InFlight, CacheServer::kPipelineDepth> pipe CLIC_GUARDED_BY(io);
    std::size_t head CLIC_GUARDED_BY(io) = 0;      // oldest in-flight entry
    std::size_t inflight CLIC_GUARDED_BY(io) = 0;  // entries in flight
    std::string outbuf CLIC_GUARDED_BY(io);         // unflushed replies
    std::uint64_t reads CLIC_GUARDED_BY(io) = 0;    // read events (faults)
    std::uint64_t replies CLIC_GUARDED_BY(io) = 0;  // replies (faults)
    std::int64_t partial_since_ns CLIC_GUARDED_BY(io) = 0;  // slowloris timer
    bool want_write CLIC_GUARDED_BY(io) = false;  // EPOLLOUT registered
    bool closed CLIC_GUARDED_BY(io) = false;

    Connection(std::size_t max_batch) : parser(max_batch) {}
  };

  /// One io thread: its epoll set, a wake eventfd, the connections it
  /// owns (thread-local — only the io thread itself touches `owned`
  /// after adoption), and the acceptor->io handoff inbox (control
  /// path).
  struct IoThread {
    int epfd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::vector<std::unique_ptr<Connection>> owned;  // io-thread-local
    // clic-lint: begin-allow(no-mutex-data-path) reason=acceptor-to-io-thread connection handoff inbox; touched once per accepted connection and when the wake eventfd fires, never per frame
    Mutex mu;
    std::vector<std::unique_ptr<Connection>> inbox CLIC_GUARDED_BY(mu);
    // clic-lint: end-allow(no-mutex-data-path)
  };

  void AcceptLoop();
  void IoLoop(std::size_t k);
  /// Moves the inbox's connections into this io thread's epoll set.
  /// Runs when the wake eventfd fires and once more at drain, so the
  /// polling loop itself never takes the inbox mutex.
  void AdoptNewConnections(IoThread& t);
  /// Gives the connection one read(): parses and Begins every complete
  /// frame in it (ConsumeFrames). At EOF it retires and flushes every
  /// frame already read, then closes.
  void HandleReadable(Connection& conn) CLIC_REQUIRES(conn.io);
  /// Parses every complete frame in the read() chunk [data, data + len)
  /// and Begins each batch frame, retiring the oldest when the pipeline
  /// is full, and marks the chunk's last frame, so its retirement
  /// flushes. The rest stay in flight for the retire pass. On a
  /// malformed frame, a non-batch frame or net:reset it retires the
  /// pipeline, answers and closes. Returns false once the connection is
  /// closed.
  bool ConsumeFrames(Connection& conn, const std::uint8_t* data,
                     std::size_t len) CLIC_REQUIRES(conn.io);
  /// Waits for the oldest in-flight frame (counted in blocked_retires
  /// when it has not completed) and queues its status reply; the last
  /// frame of a chunk also flushes.
  void RetireOldest(Connection& conn) CLIC_REQUIRES(conn.io);
  /// Retires the oldest in-flight frames while they have completed,
  /// never waiting; returns how many it retired.
  std::size_t RetireCompleted(Connection& conn) CLIC_REQUIRES(conn.io);
  /// Retires every in-flight frame, oldest first, waiting for each.
  void RetireAll(Connection& conn) CLIC_REQUIRES(conn.io);
  /// Appends one reply to outbuf; every net:torn-write'th reply flushes
  /// up to its midpoint, so that reply straddles two write() calls.
  void QueueReply(Connection& conn, FrameType type, std::uint16_t code,
                  std::uint64_t seq) CLIC_REQUIRES(conn.io);
  /// QueueReply + flush: the typed error frame that precedes a close.
  void SendReply(Connection& conn, FrameType type, std::uint16_t code,
                 std::uint64_t seq) CLIC_REQUIRES(conn.io);
  /// Writes up to `limit` bytes of outbuf (0 = all); leftovers register
  /// EPOLLOUT.
  void FlushWrites(Connection& conn, std::size_t limit)
      CLIC_REQUIRES(conn.io);
  /// Retires anything still in flight (so no batch points into a dead
  /// connection), then closes and releases the port slot.
  void CloseConnection(Connection& conn) CLIC_REQUIRES(conn.io);
  void SweepDeadlines(IoThread& t, std::int64_t now_ns);
  void DrainConnection(Connection& conn) CLIC_REQUIRES(conn.io);

  NetServerOptions options_;
  std::unique_ptr<CacheServer> server_;
  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;  // Drain() writes it to end AcceptLoop
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<IoThread>> io_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  bool drained_ = false;  // main-thread flag; Drain is not concurrent

  // Bounded connection table: free cache-server port slots. Control
  // path only (accept / close).
  // clic-lint: begin-allow(no-mutex-data-path) reason=free-slot list touched only at accept and connection close, never per frame
  Mutex slots_mu_;
  std::vector<std::size_t> free_slots_ CLIC_GUARDED_BY(slots_mu_);
  // clic-lint: end-allow(no-mutex-data-path)

  // Wire-edge counters (multi-thread writers; relaxed increments,
  // aggregated quiescently in Stats()).
  struct Counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> accept_shed{0};
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> frame_requests{0};
    std::atomic<std::uint64_t> rejected_frames{0};
    std::atomic<std::uint64_t> rejected_requests{0};
    std::atomic<std::uint64_t> evicted_read{0};
    std::atomic<std::uint64_t> drained_frames{0};
    std::atomic<std::uint64_t> resets_injected{0};
    std::atomic<std::uint64_t> torn_writes{0};
    std::atomic<std::uint64_t> partial_reads{0};
    std::atomic<std::uint64_t> accept_stalls{0};
    std::atomic<std::uint64_t> reply_writes{0};
    std::atomic<std::uint64_t> blocked_retires{0};
  };
  Counters counters_;
};

}  // namespace clic::server::net
