#include "wire_load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace clic_bench {

using clic::server::net::AppendBatchFrame;
using clic::server::net::FrameParser;
using clic::server::net::FrameType;
using clic::server::net::kWireApplied;
using clic::server::net::kWireMaxBatch;
using clic::server::net::ParseStatus;

namespace {

/// A connection that has had replies outstanding this long without a
/// single one arriving is declared wedged; the benchmark fails rather
/// than hanging.
constexpr std::int64_t kNoReplyLimitNs = 10'000'000'000;

}  // namespace

WireConn::WireConn(const clic::Request* reqs, std::size_t count,
                   std::size_t batch)
    : reqs_(reqs), count_(count), batch_(batch), parser_(kWireMaxBatch) {}

bool WireConn::Connect(std::uint16_t port, std::string* error) {
  Close();
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    *error = std::string("connect 127.0.0.1:") + std::to_string(port) + ": " +
             std::strerror(errno);
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

void WireConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

SegmentStats WireLoad::OpenLoop(double rate_rps, std::size_t batch,
                                double seconds) {
  return Run(Mode::kOpen, static_cast<double>(batch) / rate_rps * 1e9, 0,
             seconds);
}

SegmentStats WireLoad::ClosedLoop(std::size_t depth, double seconds) {
  return Run(Mode::kClosed, 0.0, depth, seconds);
}

SegmentStats WireLoad::Run(Mode mode, double interval_ns, std::size_t depth,
                           double seconds) {
  SegmentStats st;
  const std::int64_t t0 = NowNs();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t k = 0;  // open loop: frames scheduled so far
  bool backlog_taken = false;
  std::int64_t last_progress = t0;
  std::uint64_t replies_seen = 0;
  for (;;) {
    const std::int64_t now = NowNs();
    if (now < stop) {
      if (mode == Mode::kOpen) {
        for (;;) {
          const std::int64_t due =
              t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                             interval_ns);
          if (due > now) break;
          WireConn* c = conns_[k % conns_.size()];
          ++k;
          if (c->alive()) Send(*c, due, now, &st);
        }
      } else {
        for (WireConn* c : conns_) {
          while (c->alive() && c->inflight() < depth) {
            Send(*c, now, now, &st);
          }
        }
      }
    } else if (!backlog_taken) {
      backlog_taken = true;
      for (WireConn* c : conns_) st.backlog += c->inflight();
    }
    for (WireConn* c : conns_) Flush(*c, &st);
    for (WireConn* c : conns_) Receive(*c, stop, &st);

    bool idle = true;
    for (WireConn* c : conns_) idle = idle && c->inflight() == 0;
    if (now >= stop && idle) break;
    if (st.replies != replies_seen || idle) {
      replies_seen = st.replies;
      last_progress = now;
    } else if (now - last_progress > kNoReplyLimitNs) {
      st.error = "no reply for 10 s with frames outstanding";
      for (WireConn* c : conns_) Lose(*c, &st, st.error);
      break;
    }
  }
  st.seconds = seconds;
  return st;
}

void WireLoad::Send(WireConn& c, std::int64_t due_ns, std::int64_t now_ns,
                    SegmentStats* st) {
  if (c.pos_ + c.batch_ > c.count_) c.pos_ = 0;
  const std::size_t n = std::min(c.batch_, c.count_ - c.pos_);
  const std::uint64_t seq = ++c.seq_;
  const std::int32_t span =
      tracer_->Add(kFrame, due_ns, 0, -1, seq, static_cast<std::uint32_t>(n));
  const std::int64_t enc_start = span >= 0 ? NowNs() : 0;
  const std::size_t before = c.out_.size();
  AppendBatchFrame(c.reqs_ + c.pos_, n, seq, &c.out_);
  c.encoded_ += c.out_.size() - before;
  if (span >= 0) {
    tracer_->Add(kFrameEncode, enc_start, NowNs(), span, seq,
                 static_cast<std::uint32_t>(n));
  }
  c.pos_ += n;
  c.inflight_.push_back(WireConn::Pending{due_ns, seq, c.encoded_, span,
                                          static_cast<std::uint32_t>(n)});
  ++c.unsent_;
  ++st->frames;
  st->requests += n;
  st->late_us.push_back(static_cast<double>(now_ns - due_ns) / 1e3);
}

void WireLoad::Flush(WireConn& c, SegmentStats* st) {
  while (c.alive() && c.out_off_ < c.out_.size()) {
    const std::int64_t start = tracer_->on() ? NowNs() : 0;
    const ssize_t w = ::send(c.fd_, c.out_.data() + c.out_off_,
                             c.out_.size() - c.out_off_, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Lose(c, st, std::string("send: ") + std::strerror(errno));
      return;
    }
    c.out_off_ += static_cast<std::size_t>(w);
    c.written_ += static_cast<std::uint64_t>(w);
    // Frames this write finished sending; each gets a send span.
    const std::int64_t end = tracer_->on() ? NowNs() : 0;
    while (c.unsent_ > 0) {
      const WireConn::Pending& f = c.inflight_[c.inflight_.size() - c.unsent_];
      if (f.end_offset > c.written_) break;
      if (f.span >= 0) tracer_->Add(kFrameSend, start, end, f.span, f.seq, f.n);
      --c.unsent_;
    }
  }
  if (c.out_off_ == c.out_.size()) {
    c.out_.clear();
    c.out_off_ = 0;
  } else if (c.out_off_ > (std::size_t{1} << 20)) {
    c.out_.erase(0, c.out_off_);
    c.out_off_ = 0;
  }
}

void WireLoad::Receive(WireConn& c, std::int64_t stop_ns, SegmentStats* st) {
  std::uint8_t buf[65536];
  while (c.alive()) {
    const ssize_t r = ::recv(c.fd_, buf, sizeof(buf), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Lose(c, st, std::string("recv: ") + std::strerror(errno));
      return;
    }
    if (r == 0) {
      Lose(c, st, "server closed the connection");
      return;
    }
    const std::int64_t now = NowNs();
    const std::uint8_t* p = buf;
    std::size_t len = static_cast<std::size_t>(r);
    for (;;) {
      const ParseStatus s = c.parser_.Consume(&p, &len, &c.reply_);
      if (s == ParseStatus::kNeedMore) break;
      if (s == ParseStatus::kError) {
        Lose(c, st, "malformed reply: " + c.parser_.error());
        return;
      }
      // Replies come back in send order, one status per batch frame.
      if (c.reply_.type != FrameType::kStatus || c.inflight_.empty() ||
          c.reply_.seq != c.inflight_.front().seq) {
        Lose(c, st,
             "unexpected reply (type " +
                 std::to_string(static_cast<int>(c.reply_.type)) + ", seq " +
                 std::to_string(c.reply_.seq) + ")");
        return;
      }
      const WireConn::Pending f = c.inflight_.front();
      c.inflight_.pop_front();
      c.unsent_ = std::min(c.unsent_, c.inflight_.size());
      ++st->replies;
      st->latency_us.push_back(static_cast<double>(now - f.due_ns) / 1e3);
      tracer_->Close(f.span, now);
      if (c.reply_.code != kWireApplied) {
        st->failed_requests += f.n;
      } else if (now <= stop_ns) {
        st->window_requests += f.n;
      }
    }
  }
}

void WireLoad::Lose(WireConn& c, SegmentStats* st, const std::string& why) {
  if (st->error.empty()) st->error = why;
  for (const WireConn::Pending& f : c.inflight_) {
    ++st->lost;
    st->failed_requests += f.n;
  }
  c.inflight_.clear();
  c.unsent_ = 0;
  c.Close();
}

}  // namespace clic_bench
