#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.h"

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

size_t samples_beyond(const std::vector<double>& xs, double q) {
  const double cut = quantile(xs, q);
  return static_cast<size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return x >= cut; }));
}

std::vector<double> fastest_per_unit(
    const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) return {};
  std::vector<double> best = passes.front();
  for (const std::vector<double>& row : passes) {
    for (size_t u = 0; u < best.size() && u < row.size(); ++u) {
      best[u] = std::min(best[u], row[u]);
    }
  }
  return best;
}

double sum_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum;
}

double median_of(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
