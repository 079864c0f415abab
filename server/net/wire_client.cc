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
#include <stdexcept>
#include <thread>

namespace clic::server::net {
namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted->size() - 1));
  return (*sorted)[idx];
}

/// One driver's share of the work and its wire-side tallies.
struct DriverState {
  WireLoadResult tally;  // per-driver; merged after join
  std::vector<double> latencies_us;
};

bool WriteAll(int fd, const char* data, std::size_t n, std::string* error) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      *error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

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
  seq_ = 0;
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

std::uint16_t WireClient::Call(const Request* reqs, std::size_t n) {
  if (fd_ < 0) {
    error_ = "not connected";
    return kWireConnClosed;
  }
  out_.clear();
  ++seq_;
  AppendBatchFrame(reqs, n, seq_, &out_);
  if (!WriteAll(fd_, out_.data(), out_.size(), &error_)) {
    Close();
    return kWireConnClosed;
  }
  // Block for the status reply, reassembling through the incremental
  // parser — a torn server write arrives as two reads and still decodes.
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("read: ") + std::strerror(errno);
      Close();
      return kWireConnClosed;
    }
    if (r == 0) {
      error_ = "connection closed before the reply";
      Close();
      return kWireConnClosed;
    }
    const std::uint8_t* p = buf;
    std::size_t len = static_cast<std::size_t>(r);
    const ParseStatus st = parser_.Consume(&p, &len, &reply_);
    if (st == ParseStatus::kNeedMore) continue;
    if (st == ParseStatus::kError) {
      error_ = "malformed reply frame: " + parser_.error();
      Close();
      return kWireConnClosed;
    }
    if (reply_.type == FrameType::kBatch) {
      error_ = "server sent a batch frame";
      Close();
      return kWireConnClosed;
    }
    // One call, one reply: bytes past it are an unsolicited or
    // duplicated frame, which must fail rather than vanish.
    if (len > 0) {
      error_ = "unexpected extra frame after reply";
      Close();
      return kWireConnClosed;
    }
    // An error frame precedes a server-side close; hand the typed code
    // up and drop the connection now.
    if (reply_.type == FrameType::kError) Close();
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
  const std::uint64_t total =
      options.request_budget > 0
          ? std::min<std::uint64_t>(options.request_budget,
                                    trace.requests.size())
          : trace.requests.size();
  const std::size_t clients = options.clients;

  auto drive = [&](std::size_t c, DriverState* st) {
    // ServeTrace's chunking rule: concatenating the chunks in client
    // order yields the capped trace.
    const std::uint64_t begin = total * c / clients;
    const std::uint64_t end = total * (c + 1) / clients;
    WireClient client;
    if (!client.Connect(options.addr, options.port)) {
      ++st->tally.failed_connects;
      const std::uint64_t reqs = end - begin;
      st->tally.submitted_requests += reqs;
      st->tally.conn_lost_requests += reqs;
      for (std::uint64_t b = begin; b < end; b += options.batch_size) {
        ++st->tally.submitted_batches;
        ++st->tally.conn_lost_batches;
      }
      return;
    }
    ++st->tally.connections;
    for (std::uint64_t off = begin; off < end; off += options.batch_size) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(options.batch_size, end - off));
      ++st->tally.submitted_batches;
      st->tally.submitted_requests += n;
      const auto t0 = Clock::now();
      std::uint16_t code = client.Call(&trace.requests[off], n);
      if (code == WireClient::kWireConnClosed && !client.connected()) {
        // Transport died (e.g. net:reset): this batch's reply is gone.
        // Reconnect once and move on to the next batch.
        ++st->tally.conn_lost_batches;
        st->tally.conn_lost_requests += n;
        if (client.Connect(options.addr, options.port)) {
          ++st->tally.connections;
          continue;
        }
        ++st->tally.failed_connects;
        for (std::uint64_t rest = off + n; rest < end;
             rest += options.batch_size) {
          const std::size_t m = static_cast<std::size_t>(
              std::min<std::uint64_t>(options.batch_size, end - rest));
          ++st->tally.submitted_batches;
          st->tally.submitted_requests += m;
          ++st->tally.conn_lost_batches;
          st->tally.conn_lost_requests += m;
        }
        return;
      }
      st->latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      switch (code) {
        case kWireApplied:
          ++st->tally.applied_batches;
          st->tally.applied_requests += n;
          break;
        case kWireShed:
          ++st->tally.shed_batches;
          st->tally.shed_requests += n;
          break;
        case kWireTimedOut:
          ++st->tally.timed_out_batches;
          st->tally.timed_out_requests += n;
          break;
        case kWireExpired:
          ++st->tally.expired_batches;
          st->tally.expired_requests += n;
          break;
        case kWireStopped:
          ++st->tally.stopped_batches;
          st->tally.stopped_requests += n;
          break;
        default:
          // A typed error frame (or server_busy): the batch was not
          // served and the server closed the connection.
          ++st->tally.wire_errors;
          ++st->tally.conn_lost_batches;
          st->tally.conn_lost_requests += n;
          if (!client.connected() &&
              client.Connect(options.addr, options.port)) {
            ++st->tally.connections;
          }
          break;
      }
    }
    client.Close();
  };

  std::vector<DriverState> states(clients);
  const auto t0 = Clock::now();
  if (options.deterministic || clients == 1) {
    // Sequential client order: the wire replay of the strict-client-
    // order stream the deterministic consumer drains.
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
    out.submitted_batches += t.submitted_batches;
    out.submitted_requests += t.submitted_requests;
    out.applied_batches += t.applied_batches;
    out.applied_requests += t.applied_requests;
    out.shed_batches += t.shed_batches;
    out.shed_requests += t.shed_requests;
    out.timed_out_batches += t.timed_out_batches;
    out.timed_out_requests += t.timed_out_requests;
    out.expired_batches += t.expired_batches;
    out.expired_requests += t.expired_requests;
    out.stopped_batches += t.stopped_batches;
    out.stopped_requests += t.stopped_requests;
    out.conn_lost_batches += t.conn_lost_batches;
    out.conn_lost_requests += t.conn_lost_requests;
    out.wire_errors += t.wire_errors;
    out.connections += t.connections;
    out.failed_connects += t.failed_connects;
    latencies.insert(latencies.end(), st.latencies_us.begin(),
                     st.latencies_us.end());
  }
  out.wall_seconds = wall;
  out.throughput_rps =
      wall > 0.0 ? static_cast<double>(out.applied_requests) / wall : 0.0;
  out.p50_us = Percentile(&latencies, 0.50);
  out.p99_us = Percentile(&latencies, 0.99);
  return out;
}

}  // namespace clic::server::net
