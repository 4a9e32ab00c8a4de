// Unified bench runner.
//
// Always runs the iSVD streaming-update suite — the paper's enabling kernel
// — on a bench_envlog_update-style workload (wide sensor dimension, a long
// stream of column updates) and emits machine-readable BENCH_isvd.json
// tracking ns/update-column, columns/sec, and the speedup of the blocked
// workspace-reusing fast path over the per-column baseline. CI uploads the
// JSON as an artifact so the perf trajectory is visible from PR 1 onward.
//
// Without --quick it then drives the per-figure/per-table bench binaries
// (built next to this one) so a single invocation reproduces every artifact.
//
//   bench_main [--quick] [--full] [--repeats N] [--out DIR] [--figures]
//     --quick    CI mode: small iSVD workload, skip the figure benches
//                (unless --figures is also given)
//     --full     paper-scale iSVD workload; figure benches get --full too
//     --figures  force the figure benches to run even with --quick
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "isvd/isvd.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

using namespace imrdmd;

namespace {

// Envlog-style synthetic stream: a few coherent spatio-temporal modes plus
// deterministic pseudo-noise, matching the low-rank-plus-noise structure of
// the machine telemetry the paper ingests.
linalg::Mat make_stream(std::size_t sensors, std::size_t cols) {
  linalg::Mat data(sensors, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto noise = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  };
  for (std::size_t p = 0; p < sensors; ++p) {
    const double phase = 0.07 * static_cast<double>(p);
    for (std::size_t t = 0; t < cols; ++t) {
      const double x = static_cast<double>(t) / 256.0;
      double value = 40.0 + 5.0 * std::sin(2.0 * 3.14159265358979 * 0.4 * x + phase);
      value += 1.5 * std::sin(2.0 * 3.14159265358979 * 6.0 * x + 2.0 * phase);
      value += 0.2 * noise();
      data(p, t) = value;
    }
  }
  return data;
}

struct VariantResult {
  std::size_t block = 0;
  double seconds = 0.0;
  double ns_per_col = 0.0;
  double cols_per_sec = 0.0;
  std::size_t final_rank = 0;
  std::vector<double> spectrum;
};

// Streams `data` columns [initial_cols, …) into a fresh Isvd in blocks of
// `block` columns; returns timing over the streamed region only.
VariantResult run_variant(const linalg::Mat& data, std::size_t initial_cols,
                          std::size_t block, std::size_t repeats) {
  const std::size_t sensors = data.rows();
  const std::size_t streamed = data.cols() - initial_cols;
  isvd::IsvdOptions options;
  options.max_rank = 32;
  options.truncation_tol = 1e-10;

  VariantResult result;
  result.block = block;
  double total = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    isvd::Isvd isvd(options);
    isvd.initialize(data.block(0, 0, sensors, initial_cols));
    WallTimer timer;
    for (std::size_t c0 = initial_cols; c0 < data.cols(); c0 += block) {
      const std::size_t w = std::min(block, data.cols() - c0);
      isvd.update(data.block(0, c0, sensors, w));
    }
    total += timer.seconds();
    if (rep + 1 == repeats) {
      result.final_rank = isvd.rank();
      result.spectrum = isvd.s();
    }
  }
  result.seconds = total / static_cast<double>(repeats);
  result.ns_per_col =
      result.seconds * 1e9 / static_cast<double>(streamed);
  result.cols_per_sec = static_cast<double>(streamed) / result.seconds;
  return result;
}

int run_figure_benches(const std::string& self, const std::string& out_dir,
                       bool full) {
  // Everything bench/CMakeLists.txt builds next to bench_main.
  const char* benches[] = {
      "bench_envlog_update", "bench_gpu_update",   "bench_sensor_add",
      "bench_fig3_case1",    "bench_fig4_rackview", "bench_fig5_spectrum",
      "bench_fig6_case2",    "bench_fig7_spectrum2", "bench_fig8_embeddings",
      "bench_fig9_scaling",  "bench_q2_accuracy",  "bench_table1",
      "bench_ablation",      "bench_fleet",        "bench_checkpoint",
      "bench_micro_linalg",  "bench_serve",        "bench_net",
  };
  std::string dir = ".";
  const std::size_t slash = self.find_last_of('/');
  if (slash != std::string::npos) dir = self.substr(0, slash);

  int failures = 0;
  for (const char* name : benches) {
    const std::string path = dir + "/" + name;
    std::string command = path + " --out " + out_dir;
    if (full) command += " --full";
    std::printf("\n>>> %s\n", command.c_str());
    const int status = std::system(command.c_str());
    if (status != 0) {
      std::printf("!!! %s exited with status %d\n", name, status);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) try {
  bool quick = false;
  bool full = false;
  bool force_figures = false;
  std::size_t repeats = 3;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--full")) {
      full = true;
    } else if (!std::strcmp(argv[i], "--figures")) {
      force_figures = true;
    } else if (!std::strcmp(argv[i], "--repeats") && i + 1 < argc) {
      const long parsed = parse_long(argv[++i], "--repeats");
      if (parsed < 1) {
        std::fprintf(stderr, "error: --repeats must be >= 1\n");
        return 2;
      }
      repeats = static_cast<std::size_t>(parsed);
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::printf(
          "usage: %s [--quick] [--full] [--repeats N] [--out DIR] "
          "[--figures]\n",
          argv[0]);
      return !std::strcmp(argv[i], "--help") ? 0 : 2;
    }
  }

  // Fail on an unwritable --out before minutes of benchmarking, not after.
  {
    const std::string probe_path = out_dir + "/BENCH_isvd.json";
    std::FILE* probe = std::fopen(probe_path.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr, "error: cannot write to --out dir: %s\n",
                   out_dir.c_str());
      return 2;
    }
    std::fclose(probe);
  }

  bench::banner(
      "Unified runner: iSVD hot-path suite + per-figure benches",
      "blocked workspace updates beat the per-column baseline");

  const std::size_t sensors = full ? 4392 : (quick ? 256 : 1024);
  const std::size_t initial_cols = quick ? 64 : 96;
  const std::size_t streamed = full ? 4096 : (quick ? 512 : 1024);
  std::printf("workload: %zu sensors, %zu initial cols, %zu streamed cols, "
              "%zu repeats\n",
              sensors, initial_cols, streamed, repeats);

  const linalg::Mat data = make_stream(sensors, initial_cols + streamed);

  const std::size_t blocks[] = {1, 8, 32};
  std::vector<VariantResult> variants;
  for (std::size_t block : blocks) {
    variants.push_back(run_variant(data, initial_cols, block, repeats));
    const VariantResult& v = variants.back();
    std::printf("  block=%-3zu %10.1f ns/col %12.0f cols/sec  rank=%zu\n",
                v.block, v.ns_per_col, v.cols_per_sec, v.final_rank);
  }

  // Cross-variant sanity: every block width folds the same columns, so the
  // retained spectra must agree closely. (Not bitwise: rank truncation
  // triggers at different points along the stream for different widths; the
  // exact-equivalence case without truncation is a unit test.)
  double spectrum_diff = 0.0;
  for (const VariantResult& v : variants) {
    for (std::size_t i = 0;
         i < std::min(v.spectrum.size(), variants[0].spectrum.size()); ++i) {
      spectrum_diff = std::max(
          spectrum_diff, std::abs(v.spectrum[i] - variants[0].spectrum[i]) /
                             variants[0].spectrum[0]);
    }
  }

  const VariantResult* best = &variants.front();
  for (const VariantResult& v : variants) {
    if (v.block > 1 && v.seconds < best->seconds) best = &v;
  }
  const double speedup = variants.front().seconds / best->seconds;
  std::printf("\nspeedup blocked(%zu) vs per-column: %.2fx  "
              "(spectrum agreement: %.2e)\n",
              best->block, speedup, spectrum_diff);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "isvd_update");
  json.field("mode", full ? "full" : (quick ? "quick" : "default"));
  json.key("workload");
  json.begin_object();
  json.field("sensors", sensors);
  json.field("initial_cols", initial_cols);
  json.field("streamed_cols", streamed);
  json.field("repeats", repeats);
  json.field("max_rank", std::size_t{32});
  json.end_object();
  json.key("variants");
  json.begin_array();
  for (const VariantResult& v : variants) {
    json.begin_object();
    json.field("block", v.block);
    json.field("seconds", v.seconds);
    json.field("ns_per_col", v.ns_per_col);
    json.field("cols_per_sec", v.cols_per_sec);
    json.field("final_rank", v.final_rank);
    json.end_object();
  }
  json.end_array();
  json.field("best_block", best->block);
  json.field("speedup_blocked_vs_percol", speedup);
  json.field("relative_spectrum_diff", spectrum_diff);
  json.end_object();
  const std::string json_path = out_dir + "/BENCH_isvd.json";
  json.write_file(json_path);
  std::printf("wrote %s\n", json_path.c_str());

  int failures = 0;
  if (!quick || force_figures) {
    failures = run_figure_benches(argv[0], out_dir, full);
  }
  if (spectrum_diff > 1e-3) {
    std::printf("!!! blocked/per-column spectra disagree\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
