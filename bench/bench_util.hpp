// Shared plumbing for the experiment-reproduction benches: repetition
// control, row formatting, and the success/iteration summaries every paper
// table reports.
//
// Every bench honours two environment variables:
//   TRDSE_BENCH_SCALE  multiply all repetition counts (default 1; the paper's
//                      full 100-run protocol is SCALE ~= 5-10)
//   TRDSE_BENCH_BUDGET override the per-run simulation cap (default: table-
//                      specific, usually the paper's 10k)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "linalg/stats.hpp"

namespace trdse::bench {

inline std::size_t scaled(std::size_t base) {
  const char* s = std::getenv("TRDSE_BENCH_SCALE");
  if (s == nullptr) return base;
  const double f = std::atof(s);
  if (f <= 0.0) return base;
  const auto n = static_cast<std::size_t>(base * f);
  return n == 0 ? 1 : n;
}

inline std::size_t budgetOr(std::size_t fallback) {
  const char* s = std::getenv("TRDSE_BENCH_BUDGET");
  if (s == nullptr) return fallback;
  const std::size_t v = std::strtoull(s, nullptr, 10);
  return v == 0 ? fallback : v;
}

/// Success-rate + iteration statistics for one agent row.
struct AgentRow {
  std::string name;
  std::size_t runs = 0;
  std::size_t successes = 0;
  std::vector<double> iterations;  ///< per-run simulations (cap when failed)

  double successRate() const {
    return runs == 0 ? 0.0
                     : 100.0 * static_cast<double>(successes) /
                           static_cast<double>(runs);
  }
};

inline void printTableHeader(const char* title, const char* paperRef) {
  std::printf("\n==== %s ====\n(reproduces %s; see docs/BENCHMARKS.md, "
              "\"Reproducing Tables I-V\", for the paper-vs-measured notes)\n",
              title, paperRef);
  std::printf("%-44s %9s %12s %8s %8s %8s\n", "agent/strategy", "success",
              "avg iters", "stddev", "min", "max");
}

inline void printRow(const AgentRow& row) {
  const linalg::Summary s = linalg::summarize(row.iterations);
  std::printf("%-44s %8.0f%% %12.1f %8.1f %8.0f %8.0f\n", row.name.c_str(),
              row.successRate(), s.mean, s.stddev, s.min, s.max);
}

}  // namespace trdse::bench
