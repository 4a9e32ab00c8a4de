#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "linalg/backend.hpp"

namespace perfbench::trace {

namespace {

using imrdmd::linalg::Backend;
using imrdmd::linalg::Mat;

/// One thread's kernel counters. Written only by its owning thread;
/// relaxed atomics keep the between-pass reads race-free.
struct Slot {
  std::atomic<double> svd_calls{0}, svd_s{0};
  std::atomic<double> gemm_calls{0}, gemm_s{0}, gemm_flop{0};
  std::atomic<double> qr_s{0};
  std::atomic<double> project_out_s{0};
};

struct SlotTable {
  std::mutex mutex;
  std::vector<std::unique_ptr<Slot>> slots;  // never shrinks
};

SlotTable& slot_table() {
  static SlotTable* table = new SlotTable;  // outlives every pool thread
  return *table;
}

Slot& my_slot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    SlotTable& table = slot_table();
    std::lock_guard<std::mutex> lock(table.mutex);
    table.slots.push_back(std::make_unique<Slot>());
    slot = table.slots.back().get();
  }
  return *slot;
}

void bump(std::atomic<double>& cell, double delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

class TracedBackend final : public Backend {
 public:
  explicit TracedBackend(Backend& inner) : inner_(inner) {}

  const char* name() const override { return kTracedBackend; }
  std::string capabilities() const override {
    return std::string("forwards to ") + inner_.name() +
           ", counting and timing each kernel per thread";
  }
  void matmul_into(const Mat& a, const Mat& b, Mat& out) override {
    gemm(a.rows(), a.cols(), b.cols(),
         timed([&] { inner_.matmul_into(a, b, out); }));
  }
  void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) override {
    gemm(a.cols(), a.rows(), b.cols(),
         timed([&] { inner_.matmul_at_b_into(a, b, out); }));
  }
  void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) override {
    gemm(a.rows(), a.cols(), b.rows(),
         timed([&] { inner_.matmul_a_bt_into(a, b, out); }));
  }
  void matmul_sub(const Mat& a, const Mat& b, Mat& out) override {
    gemm(a.rows(), a.cols(), b.cols(),
         timed([&] { inner_.matmul_sub(a, b, out); }));
  }
  void project_out(const Mat& u, Mat& residual, Mat& coeff_accum,
                   Mat& coeff_ws) override {
    const double s =
        timed([&] { inner_.project_out(u, residual, coeff_accum, coeff_ws); });
    bump(my_slot().project_out_s, s);
  }
  void thin_qr_into(const Mat& a, imrdmd::linalg::QrResult& out,
                    imrdmd::linalg::QrWorkspace& ws) override {
    const double s = timed([&] { inner_.thin_qr_into(a, out, ws); });
    bump(my_slot().qr_s, s);
  }
  void svd_into(const Mat& x, imrdmd::linalg::SvdResult& out,
                imrdmd::linalg::SvdWorkspace& ws) override {
    const double s = timed([&] { inner_.svd_into(x, out, ws); });
    Slot& slot = my_slot();
    bump(slot.svd_calls, 1.0);
    bump(slot.svd_s, s);
  }

 private:
  // One m x k by k x n product: 2mnk floating-point operations.
  static void gemm(std::size_t m, std::size_t k, std::size_t n, double s) {
    Slot& slot = my_slot();
    bump(slot.gemm_calls, 1.0);
    bump(slot.gemm_s, s);
    bump(slot.gemm_flop, 2.0 * static_cast<double>(m) *
                             static_cast<double>(k) * static_cast<double>(n));
  }

  Backend& inner_;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t chunk = kNoChunk;
  std::size_t thread = 0;
};

struct SpanLog {
  std::mutex mutex;
  std::vector<Span> spans;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<bool> enabled{false};
  const Clock::time_point epoch = Clock::now();
};

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

}  // namespace

void install_backend(const std::string& inner) {
  if (imrdmd::linalg::find_backend(kTracedBackend) != nullptr) return;
  Backend* target = imrdmd::linalg::find_backend(inner);
  if (target == nullptr) {
    throw imrdmd::InvalidArgument("perfbench: no linalg backend named " +
                                  inner);
  }
  imrdmd::linalg::register_backend(std::make_unique<TracedBackend>(*target));
}

LinalgTotals linalg_totals() {
  LinalgTotals totals;
  SlotTable& table = slot_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  const auto read = [](const std::atomic<double>& cell) {
    return cell.load(std::memory_order_relaxed);
  };
  // Flop counts are whole numbers far below 2^53, so their sum is exact
  // however the calls fell across threads; scaling each thread's share
  // first would round differently from run to run.
  double gemm_flop = 0.0;
  for (const auto& slot : table.slots) {
    totals.svd_calls += read(slot->svd_calls);
    totals.svd_s += read(slot->svd_s);
    totals.gemm_calls += read(slot->gemm_calls);
    totals.gemm_s += read(slot->gemm_s);
    gemm_flop += read(slot->gemm_flop);
    totals.qr_s += read(slot->qr_s);
    totals.project_out_s += read(slot->project_out_s);
  }
  totals.gemm_gflop = gemm_flop * 1e-9;
  return totals;
}

void reset_linalg() {
  SlotTable& table = slot_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  for (const auto& slot : table.slots) {
    for (std::atomic<double>* cell :
         {&slot->svd_calls, &slot->svd_s, &slot->gemm_calls, &slot->gemm_s,
          &slot->gemm_flop, &slot->qr_s, &slot->project_out_s}) {
      cell->store(0.0, std::memory_order_relaxed);
    }
  }
}

void set_enabled(bool on) {
  span_log().enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return span_log().enabled.load(std::memory_order_relaxed); }

std::uint64_t open_id() {
  if (!enabled()) return 0;
  return span_log().next_id.fetch_add(1, std::memory_order_relaxed);
}

void record_as(std::uint64_t id, const char* name, Clock::time_point start,
               Clock::time_point end, std::uint64_t parent,
               std::uint64_t chunk) {
  if (id == 0 || !enabled()) return;
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start = start;
  span.end = end;
  span.chunk = chunk;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  SpanLog& log = span_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  log.spans.push_back(span);
}

std::uint64_t record(const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent,
                     std::uint64_t chunk) {
  const std::uint64_t id = open_id();
  record_as(id, name, start, end, parent, chunk);
  return id;
}

std::size_t write_spans(const std::string& path) {
  SpanLog& log = span_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  std::ofstream out(path, std::ios::trunc);
  const auto micros = [&log](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - log.epoch).count();
  };
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_us\": "
        << micros(s.start) << ", \"end_us\": " << micros(s.end)
        << ", \"chunk\": ";
    if (s.chunk == kNoChunk) {
      out << "null";
    } else {
      out << s.chunk;
    }
    out << ", \"thread\": " << (s.thread % 100000) << "}"
        << (i + 1 < log.spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) {
    throw imrdmd::Error("perfbench: cannot write spans to " + path);
  }
  return log.spans.size();
}

void record_chunk_spans(const std::vector<RecordingSink::Delivery>& deliveries,
                        std::uint64_t pass_span) {
  if (!enabled()) return;
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    const RecordingSink::Delivery& d = deliveries[i];
    if (d.segment != deliveries[i - 1].segment) continue;
    const std::uint64_t chunk = d.chunk_index;
    const std::uint64_t span =
        record("chunk", deliveries[i - 1].at, d.at, pass_span, chunk);
    const auto before = [&d](double seconds) {
      return d.at - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    };
    const std::uint64_t fit =
        record("assessor.fit", before(d.fit_seconds), d.at, span, chunk);
    if (d.coarse_fit_seconds > 0.0) {
      record("model_stack.coarse_fit", before(d.fit_seconds),
             before(d.fit_seconds - d.coarse_fit_seconds), fit, chunk);
    }
  }
}

std::optional<imrdmd::core::Mat> TracedSource::next_chunk() {
  if (!enabled()) return inner_.next_chunk();
  const Clock::time_point t0 = Clock::now();
  auto chunk = inner_.next_chunk();
  record("source.next_chunk", t0, Clock::now(), 0, pulls_++);
  return chunk;
}

}  // namespace perfbench::trace
