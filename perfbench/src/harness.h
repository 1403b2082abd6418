// Shared vocabulary of the serving benchmark: run options, the result a
// workload hands back to main(), and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured time budget (whole passes)
  bool trace = false;     // traced run: per-layer metrics instead
  std::string out_dir;    // where the traced run writes its span file
  Clock::time_point process_start;
};

// What one workload run reports. `values` holds the metrics by name (their
// units live with the metric tables in main.cc); `errors` lists every
// failed correctness check (empty = correct); `failed` counts requests
// that did not complete.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;

  void expect(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  // Records a check's message ("" = passed) under a label.
  void check(const std::string& label, const std::string& message) {
    if (!message.empty()) errors.push_back(label + ": " + message);
  }
};

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
// Samples at or beyond quantile q (the tail-percentile rule: a tail is
// reported only with at least ten samples there). Ties with the cut count:
// the requests of one classification snapshot share one return time.
size_t samples_beyond(const std::vector<double>& xs, double q);
// The fastest time of each unit of work over the timed passes: `passes`
// holds one row of per-unit times (serve calls, driver steps) per pass,
// every row the same length. Co-tenants on a shared host only ever add
// time, so the per-unit minimum is the estimate least moved by them.
std::vector<double> fastest_per_unit(
    const std::vector<std::vector<double>>& passes);
double sum_of(const std::vector<double>& xs);
double median_of(std::vector<double> xs);

// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
