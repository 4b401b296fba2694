// Order statistics of the harness's timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it; 0 for no samples.
double percentile(std::vector<double> v, double p);

/// The percentile reporting rule: the highest of p50/p75/p90/p95/p99/p99.9
/// that has at least ten of `n` samples beyond its nearest-rank sample, or
/// 0 when not even the median has (n < 20). p90 therefore needs n >= 100.
double highestTailPercentile(std::size_t n);

}  // namespace e2e
