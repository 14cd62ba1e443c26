// Shared plumbing of ctbench: run context, the metric sheet a
// workload fills, output gates, timing and order statistics, and deltas
// over the process-wide obs metrics registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ctbench {

namespace obs = ct::obs;

/// The paper's base seed; golden digests are recorded at this seed only.
inline constexpr std::uint64_t kPaperSeed = 20220627;

/// Command-line knobs of one run.
struct Context {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory (created by the caller, removed afterwards).
  std::string tmp;
  /// Chrome-trace output path of a traced run ("" = do not write).
  std::string trace_out;
  /// Golden paper-report digest at kPaperSeed ("" = no golden check).
  std::string golden;
  /// Worker threads of the parallel legs (hardware concurrency).
  unsigned nproc = 1;
};

/// What a workload reports: named metrics, output gates and the
/// attempted/failed operation tally.
class Sheet {
 public:
  /// Records metric `name` (overwrites an earlier value of the same name).
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;

  /// An output gate: a false `ok` marks the whole run incorrect.
  void gate(bool ok, const std::string& what);
  /// Free-form line echoed to stdout above the result.
  void note(const std::string& line);

  void attempt(std::uint64_t n, std::uint64_t failed);

  bool correct() const noexcept { return gate_failures_.empty(); }
  const std::vector<std::string>& gate_failures() const noexcept {
    return gate_failures_;
  }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Entry>& metrics() const noexcept {
    return metrics_;
  }
  const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> gate_failures_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seconds on the monotonic clock since `since`.
double seconds_since(std::chrono::steady_clock::time_point since);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// `p` in [0, 1] quantile with linear interpolation (0 for empty input).
double quantile(std::vector<double> v, double p);

/// The highest percentile of `v` that still has at least `beyond`
/// samples above it: the tail the sample count can support.
struct Tail {
  double percentile = 0.0;  ///< e.g. 90 for p90
  double value = 0.0;
  std::size_t samples = 0;
};
Tail supported_tail(std::vector<double> v, std::size_t beyond = 10);

/// Peak resident set size of this process (MiB).
double peak_rss_mb();

/// Difference of the obs registry between construction and a read.
class MetricsDelta {
 public:
  MetricsDelta();
  /// Freezes the end of the window; reads before stop() see nothing.
  void stop();
  /// Counter / gauge growth (a gauge reports its current value).
  double counter(const std::string& name) const;
  /// Mean value a histogram observed in the window (0 when none).
  double hist_mean(const std::string& name) const;

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// Hex digest of a report string (util::Digest).
std::string text_digest(const std::string& text);

/// Creates `path` and its parents; throws on failure.
void make_dirs(const std::string& path);

}  // namespace ctbench
