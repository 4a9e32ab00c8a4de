// Backend seam tests: the typed conformance suite instantiated for every
// in-tree backend, the registry / selection-precedence surface, the SVD
// kernels' non-finite input failure, and an end-to-end gate that the
// accelerated backend keeps Assessor z-score decisions inside the banded
// contract.
//
// Every test that changes the active backend restores the previous one on
// exit (the selection is process-global), so this file composes with CI
// runs that pin a backend through IMRDMD_LINALG_BACKEND for the whole
// suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/assessor.hpp"
#include "linalg/backend.hpp"
#include "linalg_backend_conformance.hpp"
#include "test_util.hpp"

namespace imrdmd::testing {
namespace {

// ---------------------------------------------------------------------------
// Conformance instantiations. Reference is held to bitwise identity with
// the ref:: kernels; avx2 (FMA contraction, lane reassociation) and
// openblas (different factorization pivoting entirely) get the banded
// gates. Absent backends (openblas outside IMRDMD_WITH_OPENBLAS builds,
// or on non-BLAS hosts) skip rather than fail.
// ---------------------------------------------------------------------------

struct ReferenceTraits {
  static constexpr const char* kName = "reference";
  static constexpr bool kBitwise = true;
};

struct Avx2Traits {
  static constexpr const char* kName = "avx2";
  static constexpr bool kBitwise = false;
};

struct OpenBlasTraits {
  static constexpr const char* kName = "openblas";
  static constexpr bool kBitwise = false;
};

using BackendTraits =
    ::testing::Types<ReferenceTraits, Avx2Traits, OpenBlasTraits>;
INSTANTIATE_TYPED_TEST_SUITE_P(LinalgBackends, LinalgBackendConformance,
                               BackendTraits);

// ---------------------------------------------------------------------------
// Registry and selection precedence.
// ---------------------------------------------------------------------------

/// Restores the active backend on scope exit so selection tests cannot
/// leak state into the rest of the binary.
class BackendGuard {
 public:
  BackendGuard() : previous_(linalg::active_backend().name()) {}
  ~BackendGuard() { linalg::set_active_backend(previous_); }

 private:
  std::string previous_;
};

TEST(LinalgBackendRegistry, BuiltinBackendsAreRegistered) {
  const std::vector<std::string> names = linalg::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "avx2"), names.end());
  EXPECT_NE(linalg::find_backend("reference"), nullptr);
  EXPECT_NE(linalg::find_backend("avx2"), nullptr);
  EXPECT_EQ(linalg::find_backend("no-such-backend"), nullptr);
}

TEST(LinalgBackendRegistry, ActiveBackendHonorsEnvironmentDefault) {
  // CI runs the whole suite under IMRDMD_LINALG_BACKEND=<name>; with the
  // variable unset or empty the default applies. Selection tests restore
  // the active backend, so this holds wherever this test lands in the run
  // order.
  const char* env = std::getenv("IMRDMD_LINALG_BACKEND");
  const std::string expected =
      (env != nullptr && *env != '\0') ? env : linalg::default_backend_name();
  EXPECT_EQ(std::string(linalg::active_backend().name()), expected);
}

TEST(LinalgBackendRegistry, SetActiveBackendSwitchesAndThrowsOnUnknown) {
  BackendGuard guard;
  linalg::set_active_backend("avx2");
  EXPECT_STREQ(linalg::active_backend().name(), "avx2");
  linalg::set_active_backend("reference");
  EXPECT_STREQ(linalg::active_backend().name(), "reference");
  // The error names the registered backends so a typo is self-diagnosing.
  try {
    linalg::set_active_backend("no-such-backend");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("reference"), std::string::npos);
  }
}

TEST(LinalgBackendRegistry, CapabilitiesAreReported) {
  for (const std::string& name : linalg::backend_names()) {
    linalg::Backend* backend = linalg::find_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_FALSE(backend->capabilities().empty()) << name;
  }
}

void assessor_config_selects_backend(std::size_t stride) {
  BackendGuard guard;
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.imrdmd.mrdmd.dt = 1.0;
  core::Assessor assessor(core::AssessorConfig()
                              .pipeline(options)
                              .monolithic()
                              .linalg("avx2")
                              .hierarchy(stride));
  EXPECT_STREQ(linalg::active_backend().name(), "avx2");
}

TEST(LinalgBackendConfig, AssessorConfigSelectsBackend) {
  for_each_stride(assessor_config_selects_backend);
}

void unknown_backend_name_fails_construction(std::size_t stride) {
  BackendGuard guard;
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.imrdmd.mrdmd.dt = 1.0;
  EXPECT_THROW(core::Assessor(core::AssessorConfig()
                                  .pipeline(options)
                                  .monolithic()
                                  .linalg("no-such-backend")
                                  .hierarchy(stride)),
               InvalidArgument);
}

TEST(LinalgBackendConfig, UnknownBackendNameFailsConstruction) {
  for_each_stride(unknown_backend_name_fails_construction);
}

// ---------------------------------------------------------------------------
// Non-finite input. Both Jacobi kernels end in NumericalError instead of
// returning NaN factors: a NaN or Inf keeps every rotation alive, and the
// sweep cap turns that into a typed failure. openblas is left out: what it
// does here is LAPACKE's NaN check, not this library's.
// ---------------------------------------------------------------------------

TEST(LinalgBackendSvd, JacobiKernelsThrowOnNonFiniteInput) {
  struct Shape {
    std::size_t rows, cols;
  };
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (const char* name : {"reference", "avx2"}) {
    linalg::Backend* backend = linalg::find_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    for (const Shape shape : {Shape{57, 57}, Shape{10, 6}, Shape{6, 10}}) {
      for (const double poison : poisons) {
        Rng rng(50);
        linalg::Mat x =
            backend_conformance::random_matrix(shape.rows, shape.cols, rng);
        x(shape.rows / 2, shape.cols / 3) = poison;
        linalg::SvdResult out;
        linalg::SvdWorkspace ws;
        EXPECT_THROW(backend->svd_into(x, out, ws), NumericalError)
            << name << " " << shape.rows << "x" << shape.cols << " "
            << poison;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end banded gate: the paper's decisions (per-sensor thermal
// states) must be identical between reference and avx2 on a stream whose
// z-scores sit well away from the thresholds, and the z-scores themselves
// must agree to a tight band.
// ---------------------------------------------------------------------------

std::vector<core::AssessmentSnapshot> run_stream_under(
    std::size_t stride, const std::string& backend_name, std::size_t chunk) {
  BackendGuard guard;
  linalg::set_active_backend(backend_name);

  Rng rng(11);
  // Strongly structured low-rank data: rank selection (svht cutoff) and
  // baseline membership are then stable under few-ULP kernel differences,
  // so the comparison below isolates genuine contract violations instead
  // of benign decision flips at a knife's-edge threshold.
  const core::Mat data = planted_multiscale(12, 320, 0.01, rng);

  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};
  core::Assessor assessor(
      core::AssessorConfig().pipeline(options).monolithic().hierarchy(stride));

  core::MatrixChunkSource source(data, 128, chunk);
  core::CollectingSink sink;
  assessor.run(source, sink);
  return sink.take();
}

// The chunk width is the second input: 64 snapshots fold 8 level-1 grid
// columns per update (the Jacobi core), 8 snapshots one (the broken-arrow
// core solver, the shape of every perfbench workload).
void avx2_keeps_assessment_decisions_in_band(std::size_t stride,
                                             std::size_t chunk) {
  SCOPED_TRACE("chunk " + std::to_string(chunk));
  if (linalg::find_backend("avx2") == nullptr) {
    GTEST_SKIP() << "avx2 backend not registered in this build";
  }
  const auto ref_snapshots = run_stream_under(stride, "reference", chunk);
  const auto avx_snapshots = run_stream_under(stride, "avx2", chunk);
  ASSERT_EQ(ref_snapshots.size(), avx_snapshots.size());
  ASSERT_EQ(ref_snapshots.size(), 1 + (320 - 128) / chunk);

  for (std::size_t c = 0; c < ref_snapshots.size(); ++c) {
    const auto& ref = ref_snapshots[c];
    const auto& avx = avx_snapshots[c];
    EXPECT_EQ(ref.zscores.baseline_sensors, avx.zscores.baseline_sensors)
        << "chunk " << c;
    ASSERT_EQ(ref.zscores.zscores.size(), avx.zscores.zscores.size());
    for (std::size_t s = 0; s < ref.zscores.zscores.size(); ++s) {
      // The decision band: z-scores agree far tighter than the hot/cold
      // thresholds are spaced, so thermal states cannot flip.
      EXPECT_NEAR(ref.zscores.zscores[s], avx.zscores.zscores[s], 1e-6)
          << "chunk " << c << " sensor " << s;
      EXPECT_EQ(ref.zscores.state(s), avx.zscores.state(s))
          << "chunk " << c << " sensor " << s;
    }
  }
}

TEST(LinalgBackendEndToEnd, Avx2KeepsAssessmentDecisionsInBand) {
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{8}}) {
    for_each_stride([chunk](std::size_t stride) {
      avx2_keeps_assessment_decisions_in_band(stride, chunk);
    });
  }
}

}  // namespace
}  // namespace imrdmd::testing
