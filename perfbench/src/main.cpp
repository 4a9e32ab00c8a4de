// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir D]
//
// Generates the workload's inputs from the seed, then repeats fixed-size
// passes until S seconds have been measured (at least one pass), checking
// every pass's outputs. The last line of stdout is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// (medians over passes) with --trace 0, the per-layer metrics of a separate
// traced pass with --trace 1. The line before it records every setting.
// Exits 1 when any check failed, 2 on a usage or environment error.
//
// Launch it through perfbench/run.py, which builds it and pins
// OMP_NUM_THREADS=1 in its environment before it starts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "linalg/backend.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A workload whose layer does no
// work leaves its metrics at 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"linalg.svd_calls", "count"},
    {"linalg.svd_s", "s"},
    {"linalg.gemm_calls", "count"},
    {"linalg.gemm_s", "s"},
    {"linalg.gemm_gflop", "GFLOP"},
    {"linalg.qr_s", "s"},
    {"linalg.project_out_s", "s"},
    {"isvd.rank_coarse", "count"},
    {"isvd.rank_fine_max", "count"},
    {"isvd.update_ms", "ms"},
    {"mrdmd.nodes", "count"},
    {"mrdmd.modes", "count"},
    {"mrdmd.partial_fit_ms", "ms"},
    {"model_stack.coarse_s", "s"},
    {"model_stack.coarse_share", "ratio"},
    {"model_stack.planted_not_hot", "count"},
    {"model_stack.planted_z_min", "z"},
    {"assessor.fit_s", "s"},
    {"assessor.chunk_s", "s"},
    {"assessor.other_s", "s"},
    {"assessor.lane_scaling", "ratio"},
    {"checkpoint.saves", "count"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.bytes_written", "bytes"},
    {"checkpoint.load_s", "s"},
    {"serve.tenant_fit_s", "s"},
    {"serve.scrape_p50_ms", "ms"},
    {"serve.scrape_p90_ms", "ms"},
    {"net.frames", "count"},
    {"net.bytes", "bytes"},
    {"net.reconnects", "count"},
    {"net.digest_failures", "count"},
    {"gen.lag_p90_ms", "ms"},
    {"journal.bytes", "bytes"},
    {"journal.lag_chunks_max", "count"},
    {"trace.overhead", "ratio"},
};

// Set-ups behind setup_s in one run: its passes plus extra set-up trials,
// for the workloads that have them.
constexpr std::size_t kMinSetups = 25;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "replay_polaris|wire_live|tenants_ckpt --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

// The library's IMRDMD_* environment defaults would silently override
// settings this benchmark pins, and pool threads only see OMP_NUM_THREADS
// if it is set before the process starts.
void check_environment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "IMRDMD_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "pins every setting explicitly\n",
                   *env);
      std::exit(2);
    }
  }
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::strcmp(omp, "1") != 0) {
    std::fprintf(stderr,
                 "perfbench: OMP_NUM_THREADS must be 1 in the environment "
                 "(launch through perfbench/run.py)\n");
    std::exit(2);
  }
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "replay_polaris") return make_replay_polaris(args);
  if (args.workload == "wire_live") return make_wire_live(args);
  if (args.workload == "tenants_ckpt") return make_tenants_ckpt(args);
  usage(("unknown workload " + args.workload).c_str());
}

void run_untraced(Workload& workload, const Args& args, Outcome& outcome,
                  Settings& settings) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<PassTimes> passes;
  std::vector<double> extra_setups;
  bool has_trials = true;
  // Adds set-up trials until passes plus trials reach `target`.
  const auto top_up = [&](double target) {
    while (has_trials && outcome.correct() &&
           static_cast<double>(passes.size() + extra_setups.size()) < target) {
      const double setup = workload.setup_trial(outcome);
      if (setup < 0.0) {
        has_trials = false;
      } else {
        extra_setups.push_back(setup);
      }
    }
  };
  // Set-up trials keep pace with the clock between passes, so their median
  // samples the host over the whole run rather than over its last second.
  do {
    passes.push_back(workload.run_pass(PassKind::Untraced, outcome).times);
    const double elapsed = seconds_between(start, Clock::now()) / args.seconds;
    top_up(static_cast<double>(kMinSetups) * std::min(elapsed, 1.0));
  } while (Clock::now() < deadline && outcome.correct());
  top_up(static_cast<double>(kMinSetups));
  add_end_to_end(outcome, passes, extra_setups, peak_rss_mib(), settings);
}

PassResult traced_pass(Workload& workload, Outcome& outcome) {
  trace::reset_linalg();
  trace::set_enabled(true);
  PassResult result = workload.run_pass(PassKind::Traced, outcome);
  trace::set_enabled(false);
  const trace::LinalgTotals t = trace::linalg_totals();
  result.layer["linalg.svd_calls"] = t.svd_calls;
  result.layer["linalg.svd_s"] = t.svd_s;
  result.layer["linalg.gemm_calls"] = t.gemm_calls;
  result.layer["linalg.gemm_s"] = t.gemm_s;
  result.layer["linalg.gemm_gflop"] = t.gemm_gflop;
  result.layer["linalg.qr_s"] = t.qr_s;
  result.layer["linalg.project_out_s"] = t.project_out_s;
  return result;
}

void run_traced(Workload& workload, const Args& args, Outcome& outcome,
                Settings& settings) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<double> untraced_rate, traced_rate, single_rate;
  std::vector<PassResult> traced;
  // Interleaved so host drift hits every kind alike.
  do {
    untraced_rate.push_back(
        workload.run_pass(PassKind::Untraced, outcome).times.snapshots_per_s);
    traced.push_back(traced_pass(workload, outcome));
    traced_rate.push_back(traced.back().times.snapshots_per_s);
    if (workload.has_single_lane_baseline()) {
      single_rate.push_back(workload.run_pass(PassKind::SingleLane, outcome)
                                .times.snapshots_per_s);
    }
  } while (Clock::now() < deadline && outcome.correct());

  LayerValues layer;
  for (const LayerMetric& m : kLayerMetrics) {
    std::vector<double> values;
    for (const PassResult& pass : traced) {
      const auto it = pass.layer.find(m.name);
      if (it != pass.layer.end()) values.push_back(it->second);
    }
    if (!values.empty()) layer[m.name] = median(values);
  }
  trace::set_enabled(true);
  workload.probe_layers(layer, outcome);
  trace::set_enabled(false);
  layer["trace.overhead"] = 1.0 - median(traced_rate) / median(untraced_rate);
  if (!single_rate.empty()) {
    layer["assessor.lane_scaling"] =
        median(untraced_rate) / median(single_rate);
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = layer.find(m.name);
    outcome.add(m.name, it != layer.end() ? it->second : 0.0, m.unit);
  }
  settings.set("traced_passes", static_cast<double>(traced.size()));
  const std::string spans_path = args.workdir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".json";
  const std::size_t spans = trace::write_spans(spans_path);
  settings.set("spans_file", spans_path);
  settings.set("spans", static_cast<double>(spans));
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  check_environment();
  std::filesystem::create_directories(args.workdir);
  trace::install_backend(kPinnedBackend);

  Settings settings;
  settings.set("workload", args.workload);
  settings.set("seed", static_cast<double>(args.seed));
  settings.set("seconds", args.seconds);
  settings.set("trace", args.trace ? 1.0 : 0.0);
  settings.set("omp_num_threads", std::getenv("OMP_NUM_THREADS"));
  settings.set("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));
  settings.set("linalg_backend", kPinnedBackend);
  settings.set("linalg_capabilities",
               imrdmd::linalg::find_backend(kPinnedBackend)->capabilities());
#ifdef NDEBUG
  settings.set("build", "optimized, NDEBUG");
#else
  settings.set("build", "assertions on");
#endif

  Outcome outcome;
  Settings observed;
  try {
    std::unique_ptr<Workload> workload = make_workload(args);
    workload->describe(settings);
    reset_peak_rss();  // inputs exist; measure the program, not the generator
    if (args.trace) {
      run_traced(*workload, args, outcome, settings);
    } else {
      run_untraced(*workload, args, outcome, settings);
    }
    workload->observe(observed);
  } catch (const std::exception& e) {
    outcome.fail(1, std::string("exception: ") + e.what());
  }
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  if (!observed.empty()) {
    std::printf("{\"observed\": %s}\n", observed.to_json().c_str());
  }
  std::printf("{\"settings\": %s}\n", settings.to_json().c_str());
  std::printf("%s\n", outcome.to_json().c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
