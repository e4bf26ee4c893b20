// tvp_serve — the campaign-service daemon.
//
//   ./build/tools/tvp_serve --socket=/tmp/tvp.sock --journal-dir=journals
//   ./build/tools/tvp_serve --port=7077 --journal-dir=journals
//
// Accepts run/sweep jobs over a newline-delimited-JSON protocol (see
// DESIGN.md "Campaign service"), executes them on a pool of --workers
// concurrent executors (each sweep itself parallel over TVP_JOBS), and
// checkpoints every completed sweep cell to an fsync'd journal, so a
// killed daemon resumes exactly where it stopped. SIGINT/SIGTERM drain
// gracefully: in-flight cells finish and are journaled, stream
// subscribers get their end events, the socket file is removed, and
// the process exits 0.
#include <cstdio>
#include <string>

#include "tvp/svc/server.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/failpoint.hpp"
#include "tvp/util/log.hpp"

int main(int argc, char** argv) {
  using namespace tvp;
  try {
    util::Flags flags(argc, argv,
                      {"socket", "port", "journal-dir", "queue", "jobs",
                       "workers", "backlog", "failpoints", "verbose", "help"});
    if (flags.get_bool("help") ||
        (!flags.has("socket") && !flags.has("port"))) {
      std::printf(
          "usage: tvp_serve --socket=PATH | --port=N [options]\n"
          "  --socket=PATH       listen on a unix socket\n"
          "  --port=N            listen on 127.0.0.1:N (0 = ephemeral)\n"
          "  --journal-dir=DIR   checkpoint campaigns here (enables resume)\n"
          "  --queue=N           pending-job capacity (default 64)\n"
          "  --workers=N         concurrent jobs (default: hw threads)\n"
          "  --jobs=N            worker threads per sweep (default TVP_JOBS)\n"
          "  --backlog=N         listen(2) backlog (default SOMAXCONN)\n"
          "  --failpoints=SPEC   arm fault-injection sites (testing builds;\n"
          "                      same syntax as TVP_FAILPOINTS, see DESIGN §7)\n"
          "  --verbose           info-level logging\n");
      return flags.get_bool("help") ? 0 : 2;
    }

    // Fault injection (torture testing): --failpoints wins over the
    // TVP_FAILPOINTS environment variable. A production build refuses
    // the flag outright — silently ignoring it would fake coverage.
    const std::string failpoints = flags.get("failpoints", "");
    if (!failpoints.empty()) {
      if (!util::failpoint::compiled_in()) {
        std::fprintf(stderr,
                     "tvp_serve: --failpoints requires a build with "
                     "-DTVP_ENABLE_FAILPOINTS=ON\n");
        return 2;
      }
      util::failpoint::configure(failpoints);
      std::printf("tvp_serve: failpoints armed: %s\n", failpoints.c_str());
    } else if (util::failpoint::compiled_in() &&
               util::failpoint::configure_from_env()) {
      std::printf("tvp_serve: failpoints armed from TVP_FAILPOINTS\n");
    }

    util::set_log_level(flags.get_bool("verbose") ? util::LogLevel::kInfo
                                                  : util::LogLevel::kWarn);

    svc::ServerConfig config;
    config.unix_path = flags.get("socket", "");
    config.tcp_port = flags.get_integer<int>("port", -1, -1, 65535);
    config.engine.journal_dir = flags.get("journal-dir", "");
    config.engine.queue_capacity = flags.get_integer<std::size_t>("queue", 64, 1);
    config.engine.sweep_jobs = flags.get_integer<std::size_t>("jobs", 0);
    config.engine.workers = flags.get_integer<std::size_t>("workers", 0);
    config.backlog = flags.get_integer<int>("backlog", 0, 0);

    svc::Server server(config);
    const auto resumed = server.start();
    svc::Server::install_signal_handlers(server);

    if (!config.unix_path.empty())
      std::printf("tvp_serve: listening on %s\n", config.unix_path.c_str());
    if (config.tcp_port >= 0)
      std::printf("tvp_serve: listening on 127.0.0.1:%d\n", server.tcp_port());
    std::printf("tvp_serve: %zu executor worker(s)\n",
                server.engine().worker_count());
    if (!resumed.empty())
      std::printf("tvp_serve: resumed %zu campaign(s) from %s\n",
                  resumed.size(), config.engine.journal_dir.c_str());
    std::fflush(stdout);

    server.serve();
    std::printf("tvp_serve: shut down cleanly\n");
    return 0;
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "tvp_serve: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_serve: %s\n", e.what());
    return 1;
  }
}
