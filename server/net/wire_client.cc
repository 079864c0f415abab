#include "server/net/wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "server/cache_server.h"

namespace clic::server::net {
namespace {

using Clock = std::chrono::steady_clock;

/// One driver's share of the work and its wire-side tallies.
struct DriverState {
  WireLoadResult tally;  // per-driver; merged after join
  std::vector<double> latencies_us;
};

}  // namespace

bool WireClient::Connect(const std::string& addr, std::uint16_t port) {
  Close();
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    error_ = "unparseable address '" + addr + "'";
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    error_ = std::string("connect ") + addr + ":" + std::to_string(port) +
             ": " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sent_ = 0;
  answered_ = 0;
  in_pos_ = 0;
  in_len_ = 0;
  parser_ = FrameParser(kWireMaxBatch);
  error_.clear();
  return true;
}

void WireClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint16_t WireClient::Fail(std::string why) {
  error_ = std::move(why);
  Close();
  return kWireConnClosed;
}

bool WireClient::Send(const Request* reqs, std::size_t n) {
  if (fd_ < 0) {
    Fail("not connected");
    return false;
  }
  out_.clear();
  AppendBatchFrame(reqs, n, ++sent_, &out_);
  for (std::size_t off = 0; off < out_.size();) {
    // MSG_NOSIGNAL: a server that reset mid-frame costs an EPIPE and a
    // close, never a SIGPIPE.
    const ssize_t w =
        ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      Fail(std::string("send: ") + std::strerror(errno));
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::uint16_t WireClient::Receive() {
  if (fd_ < 0) return Fail("not connected");
  // Reassemble through the incremental parser: a torn server write
  // arrives as two reads and still decodes.
  for (;;) {
    if (in_pos_ == in_len_) {
      const ssize_t r = ::read(fd_, in_, sizeof(in_));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) return Fail(std::string("read: ") + std::strerror(errno));
      if (r == 0) return Fail("connection closed before the reply");
      in_pos_ = 0;
      in_len_ = static_cast<std::size_t>(r);
    }
    const std::uint8_t* p = in_ + in_pos_;
    std::size_t len = in_len_ - in_pos_;
    const ParseStatus st = parser_.Consume(&p, &len, &reply_);
    in_pos_ = in_len_ - len;
    if (st == ParseStatus::kNeedMore) continue;
    if (st == ParseStatus::kError) {
      return Fail("malformed reply frame: " + parser_.error());
    }
    if (reply_.type == FrameType::kBatch) {
      return Fail("server sent a batch frame");
    }
    // An error frame carries a frame counter, not a request's seq, and
    // precedes a server-side close; hand the typed code up and drop the
    // connection now.
    if (reply_.type == FrameType::kError) {
      Close();
      return reply_.code;
    }
    if (reply_.seq != answered_ + 1) {
      return Fail("reply out of order: status for frame " +
                  std::to_string(reply_.seq) + ", oldest unanswered is " +
                  std::to_string(answered_ + 1));
    }
    ++answered_;
    // Every frame is answered: bytes past the last reply are an
    // unsolicited or duplicated frame, which must fail, not vanish.
    if (answered_ == sent_ && in_pos_ < in_len_) {
      return Fail("unexpected extra frame after reply");
    }
    return reply_.code;
  }
}

WireLoadResult RunWireLoad(const Trace& trace,
                           const WireLoadOptions& options) {
  if (options.clients == 0) {
    throw std::invalid_argument("RunWireLoad: need at least one client");
  }
  if (options.batch_size == 0) {
    throw std::invalid_argument("RunWireLoad: batch_size must be >= 1");
  }
  if (options.batch_size > kWireMaxBatch) {
    throw std::invalid_argument(
        "RunWireLoad: batch_size " + std::to_string(options.batch_size) +
        " exceeds " + std::to_string(kWireMaxBatch) +
        ", the most requests one wire frame carries");
  }
  const std::size_t clients = options.clients;

  auto drive = [&](std::size_t c, DriverState* st) {
    WireLoadResult& tally = st->tally;
    WireClient client;
    // Frames sent and not yet answered, oldest first: request count and
    // send time.
    std::deque<std::pair<std::size_t, Clock::time_point>> unanswered;
    // Every unanswered frame is lost; then reconnect. False when the
    // reconnect fails, which loses the rest of the chunk too.
    const auto lose_unanswered_and_reconnect = [&] {
      for (const auto& frame : unanswered) {
        ++tally.conn_lost_batches;
        tally.conn_lost_requests += frame.first;
      }
      unanswered.clear();
      return client.Connect(options.addr, options.port);
    };
    // Tallies the oldest frame's reply. False once the transport is gone
    // for good.
    const auto receive_oldest = [&] {
      const std::uint16_t code = client.Receive();
      if (code == WireClient::kWireConnClosed) {
        return lose_unanswered_and_reconnect();
      }
      const auto [n, sent_at] = unanswered.front();
      st->latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - sent_at)
              .count());
      switch (code) {
        case kWireApplied: tally.Add(SubmitResult::kApplied, n); break;
        case kWireShed: tally.Add(SubmitResult::kShed, n); break;
        case kWireExpired: tally.Add(SubmitResult::kExpired, n); break;
        case kWireStopped: tally.Add(SubmitResult::kStopped, n); break;
        default:
          // A typed error frame (or server_busy): the server closed the
          // connection, so this frame and every one behind it are lost.
          ++tally.wire_errors;
          return lose_unanswered_and_reconnect();
      }
      unanswered.pop_front();
      return true;
    };
    bool up = client.Connect(options.addr, options.port);
    const auto [begin, end] = ClientChunk(trace.size(), clients, c);
    for (std::uint64_t off = begin; off < end; off += options.batch_size) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(options.batch_size, end - off));
      ++tally.submitted_batches;
      tally.submitted_requests += n;
      if (up && unanswered.size() == CacheServer::kPipelineDepth) {
        up = receive_oldest();
      }
      if (!up) {
        ++tally.conn_lost_batches;
        tally.conn_lost_requests += n;
        continue;
      }
      unanswered.emplace_back(n, Clock::now());
      if (!client.Send(&trace.requests[off], n)) {
        up = lose_unanswered_and_reconnect();
      }
    }
    while (up && !unanswered.empty()) up = receive_oldest();
    client.Close();
  };

  std::vector<DriverState> states(clients);
  const auto t0 = Clock::now();
  if (options.deterministic || clients == 1) {
    // Client order: every frame of a connection is answered before the
    // next connects (the determinism rule).
    for (std::size_t c = 0; c < clients; ++c) drive(c, &states[c]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] { drive(c, &states[c]); });
    }
    for (auto& t : threads) t.join();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  WireLoadResult out;
  std::vector<double> latencies;
  for (auto& st : states) {
    const WireLoadResult& t = st.tally;
    out += t;
    out.wire_errors += t.wire_errors;
    latencies.insert(latencies.end(), st.latencies_us.begin(),
                     st.latencies_us.end());
  }
  out.timing = TimeRun(out.applied_requests, wall, &latencies);
  return out;
}

}  // namespace clic::server::net
