#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
std::size_t nearestRank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearestRank(v.size(), p) - 1];
}

double highestTailPercentile(std::size_t n) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder)
    if (n > 0 && n - nearestRank(n, p) >= 10) return p;
  return 0.0;
}

}  // namespace e2e
