#include "linalg/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace imrdmd::linalg {

void Backend::project_out(const Mat& u, Mat& residual, Mat& coeff_accum,
                          Mat& coeff_ws) {
  coeff_ws.assign_zero(u.cols(), residual.cols());
  matmul_at_b_into(u, residual, coeff_ws);
  matmul_sub(u, coeff_ws, residual);
  coeff_accum += coeff_ws;
}

namespace {

// True when the running CPU executes AVX2 and FMA. Compiled without any
// -m flags (this TU carries none), so querying is safe on every x86 CPU;
// non-x86 targets simply report false.
bool cpu_has_avx2_fma() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

class ReferenceBackend final : public Backend {
 public:
  const char* name() const override { return "reference"; }
  std::string capabilities() const override {
    return "cache-blocked scalar kernels, OpenMP row panels; bitwise "
           "deterministic";
  }
  void matmul_into(const Mat& a, const Mat& b, Mat& out) override {
    ref::matmul_into(a, b, out);
  }
  void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) override {
    ref::matmul_at_b_into(a, b, out);
  }
  void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) override {
    ref::matmul_a_bt_into(a, b, out);
  }
  void matmul_sub(const Mat& a, const Mat& b, Mat& out) override {
    ref::matmul_sub(a, b, out);
  }
  void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws) override {
    ref::thin_qr_into(a, out, ws);
  }
  void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) override {
    ref::svd_into(x, out, ws);
  }
};

// AVX2/FMA for the GEMM family and the Jacobi SVD, which dominates the
// streaming update (the iSVD core and the mrDMD bins); thin QR stays on the
// reference kernel, a negligible share of the measured time. Selecting
// this backend is always legal: without compiled kernels or CPU support
// every call falls back to ref::, and capabilities() says which path runs.
class Avx2Backend final : public Backend {
 public:
  Avx2Backend() : simd_(avx2::kernels_compiled() && cpu_has_avx2_fma()) {}

  const char* name() const override { return "avx2"; }
  std::string capabilities() const override {
    if (simd_) {
      return "AVX2+FMA GEMM and Jacobi SVD kernels, reference QR "
             "(runtime-detected)";
    }
    if (!avx2::kernels_compiled()) {
      return "scalar fallback (toolchain built without AVX2 codegen)";
    }
    return "scalar fallback (CPU lacks AVX2/FMA)";
  }
  void matmul_into(const Mat& a, const Mat& b, Mat& out) override {
    simd_ ? avx2::matmul_into(a, b, out) : ref::matmul_into(a, b, out);
  }
  void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) override {
    simd_ ? avx2::matmul_at_b_into(a, b, out)
          : ref::matmul_at_b_into(a, b, out);
  }
  void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) override {
    simd_ ? avx2::matmul_a_bt_into(a, b, out)
          : ref::matmul_a_bt_into(a, b, out);
  }
  void matmul_sub(const Mat& a, const Mat& b, Mat& out) override {
    simd_ ? avx2::matmul_sub(a, b, out) : ref::matmul_sub(a, b, out);
  }
  void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws) override {
    ref::thin_qr_into(a, out, ws);
  }
  void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) override {
    simd_ ? avx2::svd_into(x, out, ws) : ref::svd_into(x, out, ws);
  }

 private:
  const bool simd_;
};

struct Registry {
  std::mutex mutex;
  // Never shrinks; Backend pointers handed out stay valid for the process
  // lifetime so the atomic active pointer can skip refcounting.
  std::vector<std::unique_ptr<Backend>> backends;
  std::atomic<Backend*> active{nullptr};
  std::once_flag env_applied;

  Backend* find_locked(const std::string& name) {
    for (const auto& backend : backends) {
      if (name == backend->name()) return backend.get();
    }
    return nullptr;
  }
};

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry;
    r->backends.push_back(std::make_unique<ReferenceBackend>());
    r->backends.push_back(std::make_unique<Avx2Backend>());
    if (auto openblas = detail::make_openblas_backend()) {
      r->backends.push_back(std::move(openblas));
    }
    return r;
  }();
  return *instance;
}

[[noreturn]] void throw_unknown_backend(Registry& reg,
                                        const std::string& name,
                                        const char* origin) {
  std::ostringstream msg;
  msg << "unknown linalg backend \"" << name << "\" (" << origin
      << "); registered:";
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& backend : reg.backends) msg << ' ' << backend->name();
  throw InvalidArgument(msg.str());
}

}  // namespace

const char* default_backend_name() { return "reference"; }

std::vector<std::string> backend_names() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.backends.size());
  for (const auto& backend : reg.backends) names.push_back(backend->name());
  return names;
}

Backend* find_backend(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.find_locked(name);
}

void register_backend(std::unique_ptr<Backend> backend) {
  IMRDMD_REQUIRE_ARG(backend != nullptr, "register_backend: null backend");
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.find_locked(backend->name()) != nullptr) {
    throw InvalidArgument(std::string("linalg backend \"") + backend->name() +
                          "\" is already registered");
  }
  reg.backends.push_back(std::move(backend));
}

void set_active_backend(const std::string& name) {
  Registry& reg = registry();
  Backend* backend = find_backend(name);
  if (backend == nullptr) {
    throw_unknown_backend(reg, name, "set_active_backend");
  }
  // Explicit selection wins over the environment variable: mark the env
  // var consumed so a later lazy init cannot override this choice.
  std::call_once(reg.env_applied, [] {});
  reg.active.store(backend, std::memory_order_release);
}

Backend& active_backend() {
  Registry& reg = registry();
  std::call_once(reg.env_applied, [&reg] {
    const char* env = std::getenv("IMRDMD_LINALG_BACKEND");
    const std::string name =
        (env != nullptr && *env != '\0') ? env : default_backend_name();
    Backend* backend = find_backend(name);
    if (backend == nullptr) {
      throw_unknown_backend(reg, name, "IMRDMD_LINALG_BACKEND");
    }
    reg.active.store(backend, std::memory_order_release);
  });
  return *reg.active.load(std::memory_order_acquire);
}

}  // namespace imrdmd::linalg
