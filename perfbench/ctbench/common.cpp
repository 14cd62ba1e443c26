#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "util/digest.h"

namespace ctbench {

void Sheet::set(const std::string& name, double value,
                const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

bool Sheet::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Sheet::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Sheet::gate(bool ok, const std::string& what) {
  if (!ok) gate_failures_.push_back(what);
}

void Sheet::note(const std::string& line) { notes_.push_back(line); }

void Sheet::attempt(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

double seconds_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail supported_tail(std::vector<double> v, std::size_t beyond) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  // Candidate percentiles from fine to coarse; the first one leaving at
  // least `beyond` samples strictly above its rank wins.
  static const double kCandidates[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                       90.0, 80.0, 75.0, 50.0};
  for (const double pct : kCandidates) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    if (rank >= 1 && v.size() - rank >= beyond) {
      tail.percentile = pct;
      tail.value = v[rank - 1];
      return tail;
    }
  }
  tail.percentile = 50.0;
  tail.value = quantile(v, 0.5);
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

MetricsDelta::MetricsDelta() : before_(obs::capture_metrics()) {}

void MetricsDelta::stop() { after_ = obs::capture_metrics(); }

double MetricsDelta::counter(const std::string& name) const {
  const obs::MetricValue* a = after_.find(name);
  const obs::MetricValue* b = before_.find(name);
  if (a == nullptr) return 0.0;
  if (a->kind == obs::MetricKind::kGauge) return static_cast<double>(a->value);
  return static_cast<double>(a->value - (b != nullptr ? b->value : 0));
}

double MetricsDelta::hist_mean(const std::string& name) const {
  const obs::MetricValue* a = after_.find(name);
  const obs::MetricValue* b = before_.find(name);
  if (a == nullptr) return 0.0;
  const std::uint64_t n = a->count - (b != nullptr ? b->count : 0);
  const std::uint64_t sum = a->sum - (b != nullptr ? b->sum : 0);
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

std::string text_digest(const std::string& text) {
  ct::util::Digest d;
  d.str("ctbench-report");
  d.str(text);
  return d.hex();
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw std::runtime_error("cannot create " + path + ": " + ec.message());
}

}  // namespace ctbench
