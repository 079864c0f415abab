// clic_serve's command line: its flag table (common/cli_util.h), its
// cross-flag rules, and the wire server options of --listen/--connect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli_util.h"
#include "server/cache_server.h"
#include "server/fault_injection.h"
#include "server/net/net_server.h"

namespace clic::server {

/// What one clic_serve command line asks for.
struct ServeCommand {
  std::string trace;
  ServerOptions server;
  LoadOptions load;
  bool verify = false;
  std::string cache_dir;       // empty = CLIC_TRACE_CACHE_DIR / default
  std::uint64_t requests = 0;  // 0 = CLIC_BENCH_REQUESTS / default cap
  std::string format = "csv";
  std::string output;  // empty = stdout
  /// main points server.fault here once the command has its final
  /// address.
  fault::FaultPlan fault_plan;
  bool has_fault_plan = false;
  bool listen = false;   // standalone wire server until SIGTERM/SIGINT
  bool connect = false;  // loopback: in-process wire server + wire drivers
  /// The --listen address and the network tuning flags; conn_limit 0 is
  /// the mode's default.
  net::NetServerOptions net;
};

/// Parses argv without the program name.
cli::Parsed<ServeCommand> ParseServeCommand(
    const std::vector<std::string>& args);

/// The wire server of a --listen or --connect command: --listen binds
/// its address and port with a 64-connection default; --connect binds
/// an ephemeral loopback port, one connection per client by default,
/// and takes frames as large as its batch.
net::NetServerOptions NetServerOptionsFor(const ServeCommand& command);

}  // namespace clic::server
