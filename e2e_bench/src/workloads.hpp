// The benchmark's three workloads, each driven through trdse's public API.
//
// Every job seed and submission order is derived from the workload seed, so
// one seed is one fixed input; repeating a workload at the same seed repeats
// the same deterministic work (rows, blocks, simulations), and only the
// timings differ between repetitions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "orch/scenario.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace e2e {

/// What one repetition needs from the harness.
struct RepContext {
  /// Decorate problems, time rounds and record spans (the traced run). The
  /// untraced run takes the exact user path: no decorator, no spans.
  bool traced = false;
  SimProbe* probe = nullptr;       ///< traced repetitions only
  std::uint64_t* nextSpanId = nullptr;
  std::string tmpRoot;             ///< serve_mix makes its temp dir below
};

/// One submission's client-side timeline (for batch workloads: one job,
/// submitted when the scheduler starts and done at the barrier of its last
/// round).
struct SubmissionSample {
  double latencyS = 0.0;  ///< submit -> final report
  double admitS = 0.0;    ///< submit -> id returned (serve_mix)
  double queueS = 0.0;    ///< id returned -> first progress event
  double runS = 0.0;      ///< first progress event -> final report
  bool warm = false;      ///< repeats an earlier submission's text
};

/// Everything one repetition measured.
struct RepResult {
  double wallS = 0.0;  ///< workload start -> last result (setup included)
  /// Deterministic per-job rows (solved, blocks, sims, hits, shared, best).
  std::vector<std::string> rows;
  /// Invariant violations found in this repetition's results.
  std::vector<std::string> problems;

  std::uint64_t edaBlocks = 0;  ///< sum of ledger blocks over jobs
  std::uint64_t sims = 0;       ///< sum of EvalStats::simulated
  std::uint64_t solvedJobs = 0;
  std::uint64_t submissions = 0;       ///< jobs, or daemon submissions
  std::uint64_t failedSubmissions = 0; ///< failed or rejected (serve_mix)
  double peakRssMb = 0.0;  ///< harness + workers / daemon
  std::vector<SubmissionSample> samples;

  // eval layer
  std::uint64_t requests = 0, cacheHits = 0, sharedHits = 0, attempts = 0,
                failures = 0, sharedEntries = 0;
  double backendS = 0.0;
  std::map<std::string, std::uint64_t> requestsByStrategy;
  std::map<std::string, double> backendSByStrategy;

  // orch layer
  std::vector<double> roundMs;
  double cpuS = 0.0;  ///< harness + reaped children (workers, daemon)
  std::uint64_t workerRespawns = 0;

  // serve daemon (serve_mix)
  double daemonCpuS = 0.0, daemonWcharMb = 0.0, stateMb = 0.0;
  std::uint64_t daemonWriteCalls = 0;

  /// serve_mix: each distinct submitted text with the (label, outcome key)
  /// of every report it got, for the fresh-run cross-check.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      reportsByText;

  std::vector<Span> spans;  ///< traced repetitions: harness-side spans
};

/// Run one repetition of workload `name` (table1_bakeoff, table3_pvt or
/// serve_mix) at `seed`. Throws std::invalid_argument for an unknown
/// workload; any other exception is a failed run.
RepResult runRepetition(const std::string& name, std::uint64_t seed,
                        const RepContext& ctx);

/// Time one set-up of workload `name`: scheduler construction (for
/// table1_bakeoff, up to the end of a one-block first round, which forks the
/// workers); for serve_mix, daemon spawn until its socket accepts.
double setupTrial(const std::string& name, std::uint64_t seed,
                  const std::string& tmpRoot);

/// serve_mix: run every distinct submitted text through a fresh in-process
/// orch::Scheduler (the `trdse run` path) and report each text whose daemon
/// report's solved/blocks/best differ.
std::vector<std::string> crossCheckFreshRuns(const RepResult& rep);

/// The scenarios table1_bakeoff and table3_pvt run (exposed for tests).
/// `probe` non-null decorates every job's problem.
trdse::orch::Scenario table1Scenario(std::uint64_t seed, const SimProbe* probe);
trdse::orch::Scenario table3Scenario(std::uint64_t seed, const SimProbe* probe);

/// One deterministic report row.
std::string formatRow(const std::string& label, bool solved, std::size_t blocks,
                      std::size_t sims, std::size_t hits, std::size_t shared,
                      double best);

}  // namespace e2e
