// tvp_submit — command-line client for tvp_serve.
//
//   tvp_submit --socket=/tmp/tvp.sock submit --name=c1
//       --config=configs/paper_campaign.cfg --param=windows --values=1,2
//       [--techniques=PARA,LiPRoMi] [--wait] [--csv=out.csv]
//   tvp_submit --socket=... status [--job=N]
//   tvp_submit --socket=... results --job=N [--csv=out.csv]
//   tvp_submit --socket=... watch --job=N     (stream cells as they finish)
//   tvp_submit --socket=... cancel --job=N
//   tvp_submit --socket=... shutdown [--drain]
//   tvp_submit --socket=... ping
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/svc/client.hpp"
#include "tvp/util/cli.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    out.push_back(text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void print_status(const tvp::svc::JobStatus& job) {
  std::printf("job %llu '%s': %s, %zu/%zu cells (%zu resumed)%s%s\n",
              static_cast<unsigned long long>(job.id), job.name.c_str(),
              tvp::svc::to_string(job.state), job.completed_cells,
              job.total_cells, job.resumed_cells,
              job.error.empty() ? "" : " — ", job.error.c_str());
}

int usage(bool ok) {
  std::printf(
      "usage: tvp_submit (--socket=PATH | --host=H --port=N) COMMAND [options]\n"
      "commands:\n"
      "  submit   --name=NAME --param=KEY --values=v1,v2,...\n"
      "           [--config=FILE] [--techniques=a,b,...] [--trace=FILE.tvpc]\n"
      "           [--wait] [--csv=FILE]\n"
      "           --trace replays a recorded corpus (see tvp_trace record)\n"
      "           instead of generating the workload; the server pins the\n"
      "           corpus identity in the job's journal\n"
      "  status   [--job=N]\n"
      "  results  --job=N [--csv=FILE]\n"
      "  watch    --job=N   (stream cell records live, NDJSON on stdout)\n"
      "  cancel   --job=N\n"
      "  shutdown [--drain]\n"
      "  ping\n");
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvp;
  try {
    util::Flags flags(argc, argv,
                      {"socket", "host", "port", "name", "config", "param",
                       "values", "techniques", "trace", "job", "wait", "csv",
                       "drain", "timeout", "help"});
    if (flags.get_bool("help") || flags.positional().empty()) return usage(flags.get_bool("help"));
    const std::string command = flags.positional()[0];

    svc::Client client =
        flags.has("socket")
            ? svc::Client::connect_unix(flags.get("socket", ""))
            : svc::Client::connect_tcp(flags.get("host", "127.0.0.1"),
                                       flags.get_integer<int>("port", 7077, 0, 65535));

    if (command == "ping") {
      client.ping();
      std::printf("ok\n");
      return 0;
    }
    if (command == "submit") {
      if (!flags.has("name") || !flags.has("param") || !flags.has("values"))
        return usage(false);
      svc::JobSpec spec;
      spec.name = flags.get("name", "");
      spec.param_key = flags.get("param", "");
      spec.values = split_csv(flags.get("values", ""));
      if (flags.has("techniques")) {
        spec.techniques = split_csv(flags.get("techniques", ""));
      } else {
        for (const auto t : hw::kAllTechniques)
          spec.techniques.emplace_back(hw::to_string(t));
      }
      if (flags.has("config")) {
        spec.config_text = read_file(flags.get("config", ""));
      } else {
        exp::SimConfig campaign;
        exp::install_standard_campaign(campaign);
        spec.config_text = exp::to_config_text(campaign);
      }
      spec.trace = flags.get("trace", "");
      const std::uint64_t id = client.submit(spec);
      std::printf("submitted job %llu '%s' (%zu cells)\n",
                  static_cast<unsigned long long>(id), spec.name.c_str(),
                  spec.cell_count());
      if (flags.get_bool("wait")) {
        const auto final_status =
            client.wait(id, flags.get_double("timeout", 3600.0));
        print_status(final_status);
        if (final_status.state != svc::JobState::kDone) return 1;
        if (flags.has("csv")) {
          const std::string path = flags.get("csv", "");
          std::ofstream os(path);
          os << client.results(id).at("csv").as_string();
          std::printf("CSV written to %s\n", path.c_str());
        }
      }
      return 0;
    }
    if (command == "status") {
      if (flags.has("job")) {
        print_status(client.status(
            flags.get_integer<std::uint64_t>("job", 0)));
      } else {
        const auto jobs = client.status();
        if (jobs.empty()) std::printf("no jobs\n");
        for (const auto& job : jobs) print_status(job);
      }
      return 0;
    }
    if (command == "results") {
      if (!flags.has("job")) return usage(false);
      const auto response =
          client.results(flags.get_integer<std::uint64_t>("job", 0));
      const std::string csv = response.at("csv").as_string();
      if (flags.has("csv")) {
        const std::string path = flags.get("csv", "");
        std::ofstream os(path);
        os << csv;
        std::printf("CSV written to %s\n", path.c_str());
      } else {
        std::fputs(csv.c_str(), stdout);
      }
      return 0;
    }
    if (command == "watch") {
      if (!flags.has("job")) return usage(false);
      const auto job_id = flags.get_integer<std::uint64_t>("job", 0);
      const auto end = client.stream_results(
          job_id, [](const util::JsonValue& cell) {
            std::printf("%s\n", cell.dump().c_str());
            std::fflush(stdout);
          });
      std::fprintf(stderr, "job %llu ended: %s%s%s\n",
                   static_cast<unsigned long long>(job_id),
                   svc::to_string(end.state), end.error.empty() ? "" : " — ",
                   end.error.c_str());
      return end.state == svc::JobState::kDone ? 0 : 1;
    }
    if (command == "cancel") {
      if (!flags.has("job")) return usage(false);
      client.cancel(flags.get_integer<std::uint64_t>("job", 0));
      std::printf("cancelled\n");
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown(flags.get_bool("drain"));
      std::printf("shutdown requested\n");
      return 0;
    }
    std::fprintf(stderr, "tvp_submit: unknown command '%s'\n", command.c_str());
    return usage(false);
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "tvp_submit: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_submit: %s\n", e.what());
    return 1;
  }
}
