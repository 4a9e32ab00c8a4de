#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, std::uint64_t value) {
  mix_bytes(h, &value, sizeof value);
}

void mix(std::uint64_t& h, const std::vector<double>& values) {
  mix(h, values.size());
  mix_bytes(h, values.data(), values.size() * sizeof(double));
}

}  // namespace

void Settings::set(const std::string& key, const std::string& value) {
  fields_[key] = json_string(value);
}

void Settings::set(const std::string& key, double value) {
  fields_[key] = json_number(value);
}

std::string Settings::to_json() const {
  std::string out = "{";
  for (const auto& [key, literal] : fields_) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + literal;
  }
  return out + "}";
}

void Outcome::fail(std::size_t chunks, const std::string& why) {
  failed += std::max<std::size_t>(chunks, 1);
  failures.push_back(why);
}

std::string Outcome::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t snapshot_digest(const imrdmd::core::AssessmentSnapshot& s) {
  std::uint64_t h = kFnvOffset;
  mix(h, s.chunk_index);
  mix(h, s.chunk_snapshots);
  mix(h, s.total_snapshots);
  mix(h, s.magnitudes);
  mix(h, s.sensor_means);
  mix(h, s.zscores.zscores);
  mix(h, s.zscores.baseline_sensors.size());
  for (std::size_t sensor : s.zscores.baseline_sensors) mix(h, sensor);
  mix(h, s.coarse_magnitudes);
  mix(h, s.coarse_zscores);
  mix(h, s.residual_zscores);
  return h;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

template <typename Fn>
void for_each_with_parts(const std::string& path, Fn&& fn) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  const fs::path dir =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  const std::string stem = target.filename().string();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) == 0 && entry.is_regular_file()) {
      fn(entry.path());
    }
  }
}

}  // namespace

void remove_with_parts(const std::string& path) {
  std::vector<std::filesystem::path> doomed;
  for_each_with_parts(path, [&](const std::filesystem::path& p) {
    doomed.push_back(p);
  });
  for (const auto& p : doomed) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
}

std::uint64_t bytes_with_parts(const std::string& path) {
  std::uint64_t total = 0;
  for_each_with_parts(path, [&](const std::filesystem::path& p) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(p, ec);
    if (!ec) total += size;
  });
  return total;
}

bool RecordingSink::on_snapshot(const imrdmd::core::AssessmentSnapshot& s) {
  const Clock::time_point now = Clock::now();
  Delivery delivery;
  delivery.chunk_index = s.chunk_index;
  delivery.chunk_snapshots = s.chunk_snapshots;
  delivery.digest = snapshot_digest(s);
  delivery.at = now;
  delivery.fit_seconds = s.fit_seconds;
  delivery.coarse_fit_seconds = s.coarse_fit_seconds;
  std::lock_guard<std::mutex> lock(mutex_);
  delivery.segment = segment_;
  if (s.chunk_index != expect_next_) ++order_errors_;
  expect_next_ = s.chunk_index + 1;
  deliveries_.push_back(delivery);
  if (keep_last_) last_ = s;
  delivered_.store(deliveries_.size(), std::memory_order_release);
  return true;
}

void RecordingSink::on_checkpoint_written(const std::string& path,
                                          std::size_t chunk_index) {
  const Clock::time_point now = Clock::now();
  // Bytes this save wrote: the main file, plus what the checkpoint's part
  // files grew by (a delta save appends; a base rewrite starts a new part).
  std::error_code ec;
  const std::uint64_t main_bytes = std::filesystem::file_size(path, ec);
  const std::uint64_t all_bytes = bytes_with_parts(path);
  const std::uint64_t part_bytes = all_bytes - (ec ? 0 : main_bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  Save save;
  save.chunk_index = chunk_index;
  save.seconds =
      deliveries_.empty() ? 0.0 : seconds_between(deliveries_.back().at, now);
  const std::uint64_t appended = part_bytes >= part_bytes_seen_
                                     ? part_bytes - part_bytes_seen_
                                     : part_bytes;
  save.bytes = (ec ? 0 : main_bytes) + appended;
  part_bytes_seen_ = part_bytes;
  saves_.push_back(save);
}

void RecordingSink::begin_segment() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++segment_;
}

std::vector<RecordingSink::Delivery> RecordingSink::deliveries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deliveries_;
}

std::vector<RecordingSink::Save> RecordingSink::saves() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return saves_;
}

std::size_t RecordingSink::order_errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_errors_;
}

imrdmd::core::AssessmentSnapshot RecordingSink::last() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_;
}

std::vector<double> delivery_gaps_ms(
    const std::vector<RecordingSink::Delivery>& deliveries) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    if (deliveries[i].segment != deliveries[i - 1].segment) continue;
    gaps.push_back(1e3 *
                   seconds_between(deliveries[i - 1].at, deliveries[i].at));
  }
  return gaps;
}

std::size_t count_digest_mismatches(
    const std::vector<RecordingSink::Delivery>& deliveries,
    const std::vector<std::uint64_t>& reference) {
  std::size_t bad = 0;
  for (const auto& d : deliveries) {
    if (d.chunk_index >= reference.size() ||
        reference[d.chunk_index] != d.digest) {
      ++bad;
    }
  }
  return bad;
}

void add_end_to_end(Outcome& outcome, const std::vector<PassTimes>& passes,
                    const std::vector<double>& extra_setups, double rss_mib,
                    Settings& settings) {
  std::vector<double> setup = extra_setups;
  std::vector<double> rate, p50, p90, restore;
  std::size_t samples = 0;
  for (const PassTimes& p : passes) {
    setup.push_back(p.setup_s);
    rate.push_back(p.snapshots_per_s);
    p50.push_back(p.latency_p50_ms);
    p90.push_back(p.latency_p90_ms);
    restore.insert(restore.end(), p.restore_s.begin(), p.restore_s.end());
    samples = p.latency_samples;
  }
  settings.set("passes", static_cast<double>(passes.size()));
  settings.set("setup_samples", static_cast<double>(setup.size()));
  settings.set("latency_samples_per_pass", static_cast<double>(samples));
  settings.set("restore_samples", static_cast<double>(restore.size()));
  outcome.add("setup_s", median(setup), "s");
  outcome.add("snapshots_per_s", median(rate), "1/s");
  outcome.add("latency_p50_ms", median(p50), "ms");
  outcome.add("latency_p90_ms", median(p90), "ms");
  outcome.add("restore_s", median(restore), "s");
  outcome.add("peak_rss_mib", rss_mib, "MiB");
}

}  // namespace perfbench
