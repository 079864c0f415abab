#include "server/net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "server/parker.h"

namespace clic::server::net {
namespace {

/// Status and error frames carry no payload.
constexpr std::size_t kReplyFrameBytes =
    kFrameHeaderBytes + kFrameChecksumBytes;

std::uint16_t WireCodeFor(SubmitResult r) {
  switch (r) {
    case SubmitResult::kApplied: return kWireApplied;
    case SubmitResult::kShed: return kWireShed;
    case SubmitResult::kExpired: return kWireExpired;
    case SubmitResult::kStopped: return kWireStopped;
    case SubmitResult::kEnqueued: return kWireApplied;  // unreachable:
        // an enqueued frame is Awaited before it is answered
  }
  return kWireApplied;
}

}  // namespace

NetServer::NetServer(const NetServerOptions& options) : options_(options) {
  if (options_.io_threads == 0) {
    throw std::invalid_argument("NetServer: need at least one io thread");
  }
  if (options_.conn_limit == 0) {
    throw std::invalid_argument(
        "NetServer: need a connection table (conn_limit >= 1)");
  }
  if (options_.server.deterministic && options_.io_threads != 1) {
    throw std::invalid_argument(
        "NetServer: deterministic mode runs exactly one io thread "
        "(strict accept-order slot assignment)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.listen_addr.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("NetServer: unparseable listen address '" +
                                options_.listen_addr +
                                "' (want a dotted quad like 127.0.0.1)");
  }

  server_ = std::make_unique<CacheServer>(options_.server,
                                          options_.conn_limit);
  {
    // clic-lint: begin-allow(no-mutex-data-path) reason=constructor-time slot-table setup, no traffic yet
    MutexLock lock(slots_mu_);
    // clic-lint: end-allow(no-mutex-data-path)
    free_slots_.reserve(options_.conn_limit);
    // Reverse order so pop_back hands out slot 0 first: deterministic
    // mode assigns ports in accept order.
    for (std::size_t s = options_.conn_limit; s > 0; --s) {
      free_slots_.push_back(s - 1);
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("NetServer: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const std::string what = std::string("NetServer: cannot listen on ") +
                             options_.listen_addr + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  io_.reserve(options_.io_threads);
  for (unsigned k = 0; k < options_.io_threads; ++k) {
    auto t = std::make_unique<IoThread>();
    t->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    t->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wake eventfd
    ::epoll_ctl(t->epfd, EPOLL_CTL_ADD, t->wake_fd, &ev);
    io_.push_back(std::move(t));
  }
  for (unsigned k = 0; k < options_.io_threads; ++k) {
    io_[k]->thread = std::thread([this, k] { IoLoop(k); });
  }
  accept_wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

NetServer::~NetServer() {
  Drain();
  for (auto& t : io_) {
    if (t->epfd >= 0) ::close(t->epfd);
    if (t->wake_fd >= 0) ::close(t->wake_fd);
  }
  if (accept_wake_fd_ >= 0) ::close(accept_wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void NetServer::AcceptLoop() {
  const fault::FaultPlan* plan = options_.server.fault;
  const int aepfd = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(aepfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_fd_;
  ::epoll_ctl(aepfd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);
  std::uint64_t accept_count = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleeps until a connection arrives or Drain() writes the wake
    // eventfd, which is never read: it stays readable, so the loop
    // re-checks stopping_ and ends.
    epoll_event out{};
    const int n = ::epoll_wait(aepfd, &out, 1, -1);
    if (n <= 0 || out.data.fd != listen_fd_) continue;
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or a transient accept error
      ++accept_count;
      if (plan != nullptr &&
          fault::Fires(plan->net_accept_stall_every, accept_count)) {
        // The trigger is the logical accept index, so replaying the plan
        // stalls the same accepts; the sliced sleep keeps a concurrent
        // Drain() from waiting the stall out.
        counters_.accept_stalls.fetch_add(1, std::memory_order_relaxed);
        SlicedSleep(plan->net_accept_stall_ms, stopping_);
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      bool have_slot = false;
      std::size_t slot = 0;
      {
        // clic-lint: begin-allow(no-mutex-data-path) reason=bounded connection table claim, once per accept
        MutexLock lock(slots_mu_);
        // clic-lint: end-allow(no-mutex-data-path)
        if (!free_slots_.empty()) {
          slot = free_slots_.back();
          free_slots_.pop_back();
          have_slot = true;
        }
      }
      if (!have_slot) {
        // Accept-time shedding: the table is bounded; tell the client
        // why before closing instead of leaving it to guess.
        counters_.accept_shed.fetch_add(1, std::memory_order_relaxed);
        std::string busy;
        AppendReplyFrame(FrameType::kError, kWireServerBusy, 0, &busy);
        (void)!::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_unique<Connection>(options_.max_batch);
      conn->fd = fd;
      conn->slot = slot;
      conn->accept_index = accept_count;
      IoThread& t = *io_[(accept_count - 1) % io_.size()];
      {
        // clic-lint: begin-allow(no-mutex-data-path) reason=acceptor-to-io-thread handoff, once per accept
        MutexLock lock(t.mu);
        // clic-lint: end-allow(no-mutex-data-path)
        t.inbox.push_back(std::move(conn));
      }
      const std::uint64_t wake = 1;
      (void)!::write(t.wake_fd, &wake, sizeof(wake));
    }
  }
  ::close(aepfd);
}

void NetServer::AdoptNewConnections(IoThread& t) {
  std::vector<std::unique_ptr<Connection>> fresh;
  {
    // clic-lint: begin-allow(no-mutex-data-path) reason=inbox adoption, only when the wake eventfd fires (after an accept) and once at drain; the polling loop never reaches it
    MutexLock lock(t.mu);
    // clic-lint: end-allow(no-mutex-data-path)
    fresh.swap(t.inbox);
  }
  for (auto& conn : fresh) {
    conn->io.Acquire();
    conn->epfd = t.epfd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    ::epoll_ctl(t.epfd, EPOLL_CTL_ADD, conn->fd, &ev);
    conn->io.Release();
    t.owned.push_back(std::move(conn));
  }
}

void NetServer::IoLoop(std::size_t k) {
  IoThread& t = *io_[k];
  const bool has_deadline = options_.read_timeout_ms > 0.0;
  // With no deadline to sweep there is nothing to do between events:
  // the acceptor and Drain() both write the wake eventfd, so the loop
  // can block until one arrives.
  const int tick_ms =
      has_deadline
          ? std::max(1, static_cast<int>(options_.read_timeout_ms / 4.0))
          : -1;
  // Spin, then block: the loop polls (timeout 0, yielding the core when
  // an iteration finds nothing to do) while a frame is in flight and
  // for one budget after its last progress, a frame read or retired.
  // It never blocks in epoll_wait with a frame in flight: a budget with
  // no progress sends it to wait in Await instead, whose parker the
  // consumers wake.
  const std::int64_t spin_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kSpinBudget)
          .count();
  std::int64_t last_progress_ns = NowNs();
  bool in_flight = false;
  epoll_event events[64];
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) break;
    const bool polling = in_flight || NowNs() - last_progress_ns < spin_ns;
    const int n = ::epoll_wait(t.epfd, events, 64, polling ? 0 : tick_ms);
    // Event pass: one read() per ready connection, Beginning every
    // complete frame in it.
    for (int i = 0; i < n; ++i) {
      Connection* conn = static_cast<Connection*>(events[i].data.ptr);
      if (conn == nullptr) {
        // The acceptor writes the eventfd after each inbox push, so
        // adoption runs only then. Reading the eventfd first means a
        // push that lands after the swap re-arms it.
        std::uint64_t drainv = 0;
        (void)!::read(t.wake_fd, &drainv, sizeof(drainv));
        AdoptNewConnections(t);
        continue;
      }
      conn->io.Acquire();
      if (!conn->closed) {
        if (events[i].events & EPOLLIN) HandleReadable(*conn);
        if (!conn->closed && (events[i].events & EPOLLOUT)) {
          FlushWrites(*conn, 0);
        }
        if (!conn->closed &&
            (events[i].events & (EPOLLERR | EPOLLHUP)) &&
            !(events[i].events & EPOLLIN)) {
          CloseConnection(*conn);
        }
      }
      conn->io.Release();
    }
    // Retire pass: answer whatever has completed, on every connection,
    // without waiting on any of them.
    std::size_t retired = 0;
    in_flight = false;
    for (auto& conn : t.owned) {
      conn->io.Acquire();
      if (!conn->closed) {
        retired += RetireCompleted(*conn);
        in_flight = in_flight || conn->inflight > 0;
      }
      conn->io.Release();
    }
    if (n > 0 || retired > 0) {
      last_progress_ns = NowNs();
    } else if (in_flight && NowNs() - last_progress_ns >= spin_ns) {
      // A whole budget with frames in flight and none completing (a
      // stalled shard, say): wait for them, parked in Await.
      for (auto& conn : t.owned) {
        conn->io.Acquire();
        if (!conn->closed) {
          RetireAll(*conn);
          FlushWrites(*conn, 0);
        }
        conn->io.Release();
      }
      in_flight = false;
      last_progress_ns = NowNs();
    } else if (polling) {
      std::this_thread::yield();
    }
    if (has_deadline) SweepDeadlines(t, NowNs());
    // Deferred removal: a closed connection's pointer may still sit in
    // this iteration's event array, so destruction waits for the end of
    // the loop body.
    for (std::size_t i = t.owned.size(); i > 0; --i) {
      Connection& conn = *t.owned[i - 1];
      conn.io.Acquire();
      const bool gone = conn.closed;
      conn.io.Release();
      if (gone) t.owned.erase(t.owned.begin() + (i - 1));
    }
  }
  // Drain path: answer what is in flight and flush what each connection
  // already sent into the stopped bucket (the cache server is stopped
  // by now, so every submit lands there with exact accounting), reply,
  // close.
  AdoptNewConnections(t);
  for (auto& conn : t.owned) {
    conn->io.Acquire();
    if (!conn->closed) DrainConnection(*conn);
    conn->io.Release();
  }
  t.owned.clear();
}

void NetServer::HandleReadable(Connection& conn) {
  const fault::FaultPlan* plan = options_.server.fault;
  std::uint8_t buf[16384];
  std::size_t want = sizeof(buf);
  ++conn.reads;
  if (plan != nullptr &&
      fault::Fires(plan->net_partial_read_every, conn.reads)) {
    // Deterministically exercise the partial-frame path: this read
    // event takes a single byte; level-triggered epoll reports the rest.
    counters_.partial_reads.fetch_add(1, std::memory_order_relaxed);
    want = 1;
  }
  // One read() per event: whatever it leaves in the socket,
  // level-triggered epoll reports again on the next poll.
  const ssize_t r = ::read(conn.fd, buf, want);
  if (r == 0) {
    // EOF: every frame already read is answered, in order, before the
    // close. A stream cut mid-frame is malformed input — count it as a
    // rejected frame even though no error reply can reach the peer.
    if (conn.parser.HasPartial()) {
      counters_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
    }
    RetireAll(conn);
    FlushWrites(conn, 0);
    CloseConnection(conn);
    return;
  }
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConnection(conn);
    return;
  }
  if (!ConsumeFrames(conn, buf, static_cast<std::size_t>(r))) return;
  // Partial-frame timer for the slowloris sweep.
  if (conn.parser.HasPartial()) {
    if (conn.partial_since_ns == 0) conn.partial_since_ns = NowNs();
  } else {
    conn.partial_since_ns = 0;
  }
}

bool NetServer::ConsumeFrames(Connection& conn, const std::uint8_t* data,
                              std::size_t len) {
  const fault::FaultPlan* plan = options_.server.fault;
  constexpr std::size_t kDepth = CacheServer::kPipelineDepth;
  bool begun = false;
  for (;;) {
    // The pipeline always has a free entry here: it is retired down
    // below kDepth right after each Begin.
    const std::size_t slot = (conn.head + conn.inflight) % kDepth;
    Connection::InFlight& next = conn.pipe[slot];
    const ParseStatus st = conn.parser.Consume(&data, &len, &next.frame);
    if (st == ParseStatus::kNeedMore) {
      // The chunk is used up. Its frames stay in flight; the newest of
      // them (a full pipeline retires only older ones) flushes the
      // replies when it is retired.
      if (begun) {
        conn.pipe[(conn.head + conn.inflight - 1) % kDepth].ends_chunk =
            true;
      }
      return true;
    }
    if (st == ParseStatus::kError) {
      // Fail closed: answer the frames before it, then a typed error
      // reply, then the connection dies.
      counters_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
      counters_.rejected_requests.fetch_add(
          conn.parser.rejected_batch_count(), std::memory_order_relaxed);
      RetireAll(conn);
      SendReply(conn, FrameType::kError, conn.parser.error_code(),
                conn.parser.frames() + 1);
      CloseConnection(conn);
      return false;
    }
    if (next.frame.type != FrameType::kBatch) {
      // Status/error frames flow server -> client only; a client
      // sending one is a protocol violation.
      counters_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
      RetireAll(conn);
      SendReply(conn, FrameType::kError, kWireBadType, next.frame.seq);
      CloseConnection(conn);
      return false;
    }
    counters_.frames.fetch_add(1, std::memory_order_relaxed);
    counters_.frame_requests.fetch_add(next.frame.requests.size(),
                                       std::memory_order_relaxed);
    next.begun = server_->Begin(conn.slot, slot, next.frame.requests.data(),
                                next.frame.requests.size());
    next.ends_chunk = false;
    begun = true;
    ++conn.inflight;
    if (plan != nullptr &&
        fault::Fires(plan->net_reset_every, conn.accept_index) &&
        conn.parser.frames() == 1) {
      // net:reset — tear this connection down right after its first
      // reply, RST instead of FIN.
      RetireAll(conn);
      FlushWrites(conn, 0);
      if (conn.closed) return false;
      counters_.resets_injected.fetch_add(1, std::memory_order_relaxed);
      const linger rst{1, 0};
      ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
      CloseConnection(conn);
      return false;
    }
    if (conn.inflight == kDepth) RetireOldest(conn);
    if (conn.closed) return false;
  }
}

void NetServer::RetireOldest(Connection& conn) {
  Connection::InFlight& f = conn.pipe[conn.head];
  SubmitResult res = f.begun;
  if (res == SubmitResult::kEnqueued) {
    if (!server_->Completed(conn.slot, conn.head)) {
      counters_.blocked_retires.fetch_add(1, std::memory_order_relaxed);
    }
    res = server_->Await(conn.slot, conn.head);
  }
  // An emptied pipeline restarts at entry 0, so a connection that sends
  // one frame at a time keeps reusing one warm slot.
  --conn.inflight;
  conn.head =
      conn.inflight == 0 ? 0 : (conn.head + 1) % CacheServer::kPipelineDepth;
  QueueReply(conn, FrameType::kStatus, WireCodeFor(res), f.frame.seq);
  if (f.ends_chunk) FlushWrites(conn, 0);
}

std::size_t NetServer::RetireCompleted(Connection& conn) {
  std::size_t retired = 0;
  while (conn.inflight > 0) {
    const Connection::InFlight& f = conn.pipe[conn.head];
    if (f.begun == SubmitResult::kEnqueued &&
        !server_->Completed(conn.slot, conn.head)) {
      break;
    }
    RetireOldest(conn);
    ++retired;
  }
  return retired;
}

void NetServer::RetireAll(Connection& conn) {
  while (conn.inflight > 0) RetireOldest(conn);
}

void NetServer::QueueReply(Connection& conn, FrameType type,
                           std::uint16_t code, std::uint64_t seq) {
  AppendReplyFrame(type, code, seq, &conn.outbuf);
  ++conn.replies;
  const fault::FaultPlan* plan = options_.server.fault;
  if (plan != nullptr &&
      fault::Fires(plan->net_torn_write_every, conn.replies) &&
      !conn.closed) {
    // net:torn-write — this reply straddles two write() calls: flush up
    // to its midpoint now, the rest with the next flush. The client
    // parser must reassemble.
    counters_.torn_writes.fetch_add(1, std::memory_order_relaxed);
    FlushWrites(conn, conn.outbuf.size() - kReplyFrameBytes / 2);
  }
}

void NetServer::SendReply(Connection& conn, FrameType type,
                          std::uint16_t code, std::uint64_t seq) {
  QueueReply(conn, type, code, seq);
  FlushWrites(conn, 0);
}

void NetServer::FlushWrites(Connection& conn, std::size_t limit) {
  if (conn.closed) return;
  std::size_t budget = limit == 0 ? conn.outbuf.size() : limit;
  std::size_t written = 0;
  while (written < budget && written < conn.outbuf.size()) {
    // MSG_NOSIGNAL: a peer that reset mid-reply costs an EPIPE and a
    // close, never a SIGPIPE.
    const ssize_t w =
        ::send(conn.fd, conn.outbuf.data() + written,
               std::min(budget, conn.outbuf.size()) - written, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);
      return;
    }
    counters_.reply_writes.fetch_add(1, std::memory_order_relaxed);
    written += static_cast<std::size_t>(w);
  }
  if (written > 0) conn.outbuf.erase(0, written);
  const bool pending = !conn.outbuf.empty();
  if (pending != conn.want_write && conn.epfd >= 0) {
    epoll_event ev{};
    ev.events = pending ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.ptr = &conn;
    ::epoll_ctl(conn.epfd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_write = pending;
  }
}

void NetServer::CloseConnection(Connection& conn) {
  if (conn.closed) return;
  conn.closed = true;
  // A pipelined batch may still point into this connection's frame
  // buffers: await it before the connection can be destroyed. The paths
  // that can still answer retired the pipeline already; what is
  // retired here (after a write or read error) goes unsent.
  RetireAll(conn);
  if (conn.epfd >= 0) ::epoll_ctl(conn.epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  if (options_.server.deterministic) {
    // Deterministic mode: a closed connection ends its port's stream —
    // the single consumer's strict-client-order drain advances past it.
    // Slots are never recycled (accept order == port order).
    server_->Finish(conn.slot);
  } else {
    // clic-lint: begin-allow(no-mutex-data-path) reason=bounded connection table release, once per close
    MutexLock lock(slots_mu_);
    // clic-lint: end-allow(no-mutex-data-path)
    free_slots_.push_back(conn.slot);
  }
}

void NetServer::SweepDeadlines(IoThread& t, std::int64_t now_ns) {
  const std::int64_t read_limit =
      static_cast<std::int64_t>(options_.read_timeout_ms * 1e6);
  for (auto& conn_ptr : t.owned) {
    Connection& conn = *conn_ptr;
    conn.io.Acquire();
    if (!conn.closed && conn.partial_since_ns != 0 &&
        now_ns - conn.partial_since_ns > read_limit) {
      // Slowloris eviction: a partial frame has been dangling past the
      // read deadline. The frames in flight are answered first, then a
      // best-effort typed reply, then the close.
      counters_.evicted_read.fetch_add(1, std::memory_order_relaxed);
      RetireAll(conn);
      SendReply(conn, FrameType::kError, kWireReadTimeout, 0);
      if (!conn.closed) CloseConnection(conn);
    }
    conn.io.Release();
  }
}

void NetServer::DrainConnection(Connection& conn) {
  // One final non-blocking read pass: frames the client already sent
  // go through the normal parse -> Begin -> Await path — the stopped
  // cache server counts each as submitted + stopped, keeping the ledger
  // exact — and are answered with a `stopped` reply, after every frame
  // still in flight from before the drain.
  const std::uint64_t parsed_before = conn.parser.frames();
  std::uint8_t buf[16384];
  bool open = true;
  while (open) {
    const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    open = ConsumeFrames(conn, buf, static_cast<std::size_t>(r));
  }
  counters_.drained_frames.fetch_add(conn.parser.frames() - parsed_before,
                                     std::memory_order_relaxed);
  if (!open) return;
  RetireAll(conn);
  FlushWrites(conn, 0);
  CloseConnection(conn);
}

void NetServer::Drain() {
  if (drained_) return;
  drained_ = true;
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t wake = 1;
  (void)!::write(accept_wake_fd_, &wake, sizeof(wake));
  if (acceptor_.joinable()) acceptor_.join();
  // Stop the cache server first: every submit from here on lands in the
  // ledger's `stopped` bucket, so the io threads' drain pass can flush
  // in-flight frames with exact accounting.
  server_->Stop();
  for (auto& t : io_) {
    (void)!::write(t->wake_fd, &wake, sizeof(wake));
  }
  for (auto& t : io_) {
    if (t->thread.joinable()) t->thread.join();
  }
}

NetStats NetServer::Stats() const {
  NetStats s;
  s.accepted = counters_.accepted.load(std::memory_order_relaxed);
  s.accept_shed = counters_.accept_shed.load(std::memory_order_relaxed);
  s.frames = counters_.frames.load(std::memory_order_relaxed);
  s.frame_requests =
      counters_.frame_requests.load(std::memory_order_relaxed);
  s.rejected_frames =
      counters_.rejected_frames.load(std::memory_order_relaxed);
  s.rejected_requests =
      counters_.rejected_requests.load(std::memory_order_relaxed);
  s.evicted_read = counters_.evicted_read.load(std::memory_order_relaxed);
  s.drained_frames =
      counters_.drained_frames.load(std::memory_order_relaxed);
  s.resets_injected =
      counters_.resets_injected.load(std::memory_order_relaxed);
  s.torn_writes = counters_.torn_writes.load(std::memory_order_relaxed);
  s.partial_reads = counters_.partial_reads.load(std::memory_order_relaxed);
  s.accept_stalls = counters_.accept_stalls.load(std::memory_order_relaxed);
  s.reply_writes = counters_.reply_writes.load(std::memory_order_relaxed);
  s.blocked_retires =
      counters_.blocked_retires.load(std::memory_order_relaxed);
  return s;
}

}  // namespace clic::server::net
