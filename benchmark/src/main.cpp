// tvp_benchmark — the repository's end-to-end benchmark.
//
//   tvp_benchmark --workload=W [--seed=S] [--seconds=N] [--trace=0|1]
//                 [--smoke] [--spec=BENCHMARK.json] [--inputs=benchmark]
//                 [--workdir=DIR] [--results=DIR] [--commit=SHA]
//
// Runs one workload (table3, fuzz_gen, fuzz_replay or service) for
// about --seconds, checks its outputs, prints one line per metric
// (`<metric> <workload> <value> <unit>`), writes a JSON result file
// (and, traced, a Chrome-trace span file) under --results, and ends
// stdout with one JSON object: correct, attempted, failed and the
// metrics BENCHMARK.json lists for the mode (end_to_end untraced,
// per_layer traced). --smoke runs every workload traced at reduced size.
// --setup-only performs a simulation workload's set-up and exits; the
// benchmark starts itself that way to time set-up in fresh processes.
// Exit status: 0 when every output is correct, 1 otherwise, 2 on usage
// errors. benchmark/run.sh builds this binary and is the entry point.
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/json.hpp"

namespace {

using namespace bench;
using tvp::util::JsonValue;
using tvp::util::JsonWriter;

/// The metric lists of BENCHMARK.json: name -> unit.
struct Spec {
  std::vector<std::string> workloads;
  std::vector<std::pair<std::string, std::string>> end_to_end;
  std::vector<std::pair<std::string, std::string>> per_layer;
};

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const JsonValue root =
      JsonValue::parse(std::string(std::istreambuf_iterator<char>(in), {}));
  Spec spec;
  for (const auto& w : root.at("workloads").items())
    spec.workloads.push_back(w.at("name").as_string());
  for (const auto& m : root.at("end_to_end").items())
    spec.end_to_end.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  for (const auto& m : root.at("per_layer").items())
    spec.per_layer.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  return spec;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

void write_env(JsonWriter& json, const std::string& commit) {
  json.key("env").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("commit").value(commit);
  json.key("cpu").value(cpu_model());
  utsname uts{};
  json.key("kernel").value(::uname(&uts) == 0 ? std::string(uts.release) : "unknown");
  json.key("compiler").value(__VERSION__);
#ifdef NDEBUG
  json.key("assertions").value(false);
#else
  json.key("assertions").value(true);
#endif
  for (const char* var : {"TVP_JOBS", "TVP_COLUMNAR", "TVP_RNG_BUFFER", "TVP_SCALE"}) {
    const char* value = std::getenv(var);
    json.key(var).value(value ? value : "");
  }
  json.end_object();
}

/// Writes the run's full record: every metric measured, the digests and
/// the environment.
void write_result(const std::string& path, const Options& opts, const Outcome& out,
                  double started_at, const std::string& commit) {
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(opts.workload);
  json.key("seed").value(opts.seed);
  json.key("seconds").value(opts.seconds);
  json.key("trace").value(opts.trace);
  json.key("smoke").value(opts.smoke);
  json.key("started_at").value_exact(started_at);
  json.key("correct").value(out.failed == 0);
  json.key("attempted").value(out.attempted);
  json.key("failed").value(out.failed);
  json.key("errors").begin_array();
  for (const auto& e : out.errors) json.value(e);
  json.end_array();
  json.key("metrics").begin_object();
  for (const auto& [name, m] : out.metrics) {
    json.key(name).begin_object();
    json.key("value").value_exact(m.value);
    json.key("unit").value(m.unit);
    json.end_object();
  }
  json.end_object();
  json.key("digests").begin_object();
  for (const auto& [key, hex] : out.digests) json.key(key).value(hex);
  json.end_object();
  write_env(json, commit);
  json.end_object();
  std::ofstream os(path);
  os << json.str() << "\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

Outcome run_workload(const Options& opts, SpanLog& log) {
  Outcome out;
  std::filesystem::create_directories(opts.workdir);
  try {
    out = opts.workload == "service" ? run_service_workload(opts, log)
                                     : run_sim_workload(opts, log);
  } catch (const std::exception& e) {
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.fail(out.attempted, std::string("exception: ") + e.what());
  }
  std::filesystem::remove_all(opts.workdir);
  out.failed = std::min(out.failed, out.attempted);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options base;
  std::string spec_path, results_dir, commit;
  try {
    tvp::util::Flags flags(argc, argv,
                           {"workload", "seed", "seconds", "trace", "smoke", "spec",
                            "inputs", "workdir", "results", "commit", "setup-only",
                            "help"});
    if (flags.get_bool("help")) {
      std::printf(
          "usage: tvp_benchmark --workload=W [--seed=S] [--seconds=N] [--trace=0|1]\n"
          "                     [--smoke] [--spec=F] [--inputs=DIR] [--workdir=DIR]\n"
          "                     [--results=DIR] [--commit=SHA]\n");
      return 0;
    }
    base.workload = flags.get("workload", "");
    base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    base.seconds = flags.get_double("seconds", 10.0);
    base.smoke = flags.get_bool("smoke");
    base.trace = base.smoke || flags.get_bool("trace");
    base.inputs_dir = flags.get("inputs", "benchmark");
    base.workdir = flags.get("workdir", ".bench_build/work");
    spec_path = flags.get("spec", "BENCHMARK.json");
    results_dir = flags.get("results", ".bench_build/results");
    commit = flags.get("commit", "unknown");
    if (base.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    if (flags.get_bool("setup-only")) {
      run_sim_setup(base);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_benchmark: %s\n", e.what());
    return 2;
  }

  try {
    const Spec spec = load_spec(spec_path);
    std::vector<std::string> workloads;
    if (base.smoke && base.workload.empty())
      workloads = spec.workloads;
    else
      workloads = {base.workload};
    for (const auto& w : workloads)
      if (std::find(spec.workloads.begin(), spec.workloads.end(), w) == spec.workloads.end())
        throw std::invalid_argument("unknown workload '" + w + "'");
    std::filesystem::create_directories(results_dir);

    std::uint64_t attempted = 0, failed = 0;
    bool coverage_ok = true;
    Outcome last;
    for (const auto& workload : workloads) {
      Options opts = base;
      opts.workload = workload;
      opts.workdir = base.workdir + "/" + workload;
      const double started_at =
          std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch())
              .count();
      SpanLog log(opts.trace);
      Outcome out = run_workload(opts, log);
      constexpr std::size_t kShownErrors = 10;
      for (std::size_t i = 0; i < std::min(out.errors.size(), kShownErrors); ++i)
        std::fprintf(stderr, "tvp_benchmark: %s: %s\n", workload.c_str(),
                     out.errors[i].c_str());
      if (out.errors.size() > kShownErrors)
        std::fprintf(stderr, "tvp_benchmark: %s: ... and %zu more failures\n",
                     workload.c_str(), out.errors.size() - kShownErrors);
      out.set("ops_attempted", static_cast<double>(out.attempted), "count");
      out.set("failed_ratio",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted), "ratio");
      for (const auto& [name, m] : out.metrics)
        std::printf("%s %s %.9g %s\n", name.c_str(), workload.c_str(), m.value,
                    m.unit.c_str());
      if (out.coverage_too_low) {
        coverage_ok = false;
        std::fprintf(stderr, "tvp_benchmark: %s: bench.coverage_pct below 90\n",
                     workload.c_str());
      }
      const auto overhead = out.metrics.find("bench.tracing_overhead_pct");
      if (overhead != out.metrics.end() && overhead->second.value > 5.0)
        std::fprintf(stderr, "tvp_benchmark: %s: warning: tracing overhead %.1f%% > 5%%\n",
                     workload.c_str(), overhead->second.value);

      const std::string stem = results_dir + "/" + workload + "-seed" +
                               std::to_string(opts.seed) + (opts.trace ? "-trace-" : "-") +
                               std::to_string(static_cast<long long>(started_at * 1e3));
      write_result(stem + ".json", opts, out, started_at, commit);
      if (opts.trace) log.write_chrome_json(stem + ".spans.json");
      attempted += out.attempted;
      failed += out.failed;
      last = std::move(out);
    }
    std::error_code ignored;
    std::filesystem::remove(base.workdir, ignored);  // only if empty
    std::fflush(stdout);

    // The last line: the listed metrics of the mode, in BENCHMARK.json
    // order. A per-layer metric of a layer this workload never calls
    // reads 0; a missing end-to-end metric is a benchmark bug.
    JsonWriter json;
    json.begin_object();
    json.key("correct").value(failed == 0);
    json.key("attempted").value(attempted);
    json.key("failed").value(failed);
    json.key("metrics").begin_object();
    if (!base.smoke) {
      const auto& listed = base.trace ? spec.per_layer : spec.end_to_end;
      for (const auto& [name, unit] : listed) {
        const auto it = last.metrics.find(name);
        if (it == last.metrics.end() && !base.trace && failed == 0)
          throw std::logic_error("end-to-end metric " + name + " was not measured");
        if (it != last.metrics.end() && it->second.unit != unit)
          throw std::logic_error("metric " + name + " measured in " + it->second.unit +
                                 ", BENCHMARK.json says " + unit);
        if (it == last.metrics.end() && !base.trace) continue;
        json.key(name).begin_object();
        json.key("value").value_exact(it == last.metrics.end() ? 0.0 : it->second.value);
        json.key("unit").value(unit);
        json.end_object();
      }
    }
    json.end_object();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    return failed == 0 && coverage_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_benchmark: %s\n", e.what());
    return 2;
  }
}
