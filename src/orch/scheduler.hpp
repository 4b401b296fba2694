// Concurrent multi-job orchestrator — many searches, one machine, one meter.
//
// The ROADMAP north-star is a production system serving many sizing
// workloads at once (DNN-Opt and AutoCkt both frame sizing as exactly this
// multi-strategy, multi-task batch workload). The Scheduler multiplexes N
// JobSpecs over a shared common::ThreadPool in *rounds*: every round, each
// unfinished job is granted `slice` more EDA blocks of its own budget and
// stepped concurrently (strategies are resumable, see opt/strategy.hpp);
// jobs on the same circuit share simulation results through one
// eval::SharedEvalCache.
//
// Determinism contract (asserted in tests/orch_test.cpp, documented in
// docs/ORCHESTRATION.md):
//   * Fair slicing is round-robin by job index with a fixed quantum, so the
//     budget-grant sequence of every job is a function of the scenario
//     alone — never of thread scheduling.
//   * Jobs only *read* the shared cache while a round runs; results
//     simulated during a round are journaled per engine and published at
//     the round barrier, in job-index order. A lookup therefore sees exactly
//     the entries published by earlier rounds, and every per-job outcome,
//     ledger, and hit/miss counter is bitwise identical for any `threads`
//     value.
//   * The barrier itself — progress, publish, quarantine, checkpoint
//     cadence, stall guard — is orch::applyRoundBarrier (orch/barrier.hpp),
//     the one function the multi-process DistributedScheduler's coordinator
//     calls too, so the two schedulers cannot drift apart.
//   * Per-job RNG streams are independent: explicit seeds are honored and
//     absent seeds derive from (baseSeed, job index) via common::perTaskSeed.
//
// Fault isolation (docs/ROBUSTNESS.md): a job whose step() throws, or whose
// engine exceeds its max_failures allowance of retry-exhausted evaluations,
// is *quarantined* at the round barrier — excluded from further rounds with
// a deterministic reason recorded in its JobResult — while every other job
// runs to completion. Quarantine decisions are made in job order from
// deterministic engine state, so they are bitwise identical for any thread
// count. With Scenario::journalPath set, the scheduler also write-ahead
// journals the whole run at round barriers (orch/journal.hpp), making a
// SIGKILL'd run resumable to byte-identical results.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/shared_cache.hpp"
#include "opt/strategy.hpp"
#include "orch/job_set.hpp"
#include "orch/scenario.hpp"

namespace trdse::orch {

/// What one scheduling round did — handed to the round hook at each barrier
/// (after publish/quarantine/journal, before the next round starts). The
/// serve daemon streams these to subscribed clients as progress events.
struct RoundObservation {
  std::size_t round = 0;  ///< 1-based round number just completed
  struct JobProgress {
    std::size_t index = 0;       ///< job index in the scenario
    std::size_t granted = 0;     ///< cumulative budget handed out so far
    std::size_t iterations = 0;  ///< strategy iterations consumed in total
    bool finished = false;       ///< strategy reports it is done
    bool quarantined = false;    ///< failure-isolated at this barrier or earlier
    bool solved = false;         ///< current outcome meets all specs
    std::size_t sharedHits = 0;  ///< cumulative cross-job cache hits
    std::size_t simulated = 0;   ///< cumulative freshly simulated blocks
    double bestValue = 0.0;      ///< best objective value so far
  };
  /// Jobs that were runnable this round, in job-index order.
  std::vector<JobProgress> jobs;
};

/// Round-based fair-slicing orchestrator over resumable strategies.
class Scheduler {
 public:
  /// Build every job's problem (circuits::Registry or JobSpec::makeProblem)
  /// and strategy up front; throws std::invalid_argument on unknown
  /// circuit/strategy names, bad options, or a checkpoint cadence on a
  /// strategy that cannot checkpoint.
  explicit Scheduler(Scenario scenario);

  /// Same, but attach every job to `externalCache` instead of constructing a
  /// fresh SharedEvalCache (serve daemon: the cache outlives any one
  /// scenario). Ignored when the scenario disables the shared cache.
  Scheduler(Scenario scenario,
            std::shared_ptr<eval::SharedEvalCache> externalCache);

  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run every job to completion (solved, budget exhausted, quarantined, or
  /// stalled) and return one row per job, in job order. `maxRounds` bounds
  /// how many scheduling rounds this call advances (0 = until done) — the
  /// crash-recovery tests use it to pause a run at a journaled barrier.
  /// Calling again after a bounded call continues the run; calling after the
  /// run completed throws std::logic_error.
  std::vector<JobResult> run(std::size_t maxRounds = 0);

  /// Restore a run journaled by a previous process (Scenario::journalPath;
  /// see orch/journal.hpp): validates the journal's scenario fingerprint,
  /// restores every job's strategy, progress, and quarantine state plus the
  /// shared cache, so the next run() continues bitwise where the journal was
  /// written. Must be called before the first run() of this scheduler;
  /// throws std::logic_error otherwise, io::CheckpointError on a corrupt or
  /// mismatched journal.
  void resume(const std::string& journalPath);

  /// Turn on write-ahead journaling after construction (serve daemon: the
  /// journal decision is per-submission, made after buildJobs validation).
  /// Throws std::invalid_argument when any job's strategy cannot checkpoint
  /// (same condition buildJobs enforces for Scenario::journalPath), and
  /// std::logic_error after the first run()/resume().
  void enableJournal(const std::string& journalPath);

  /// Install a hook invoked at every round barrier, after the round's
  /// publish/quarantine/journal transitions are final. The hook runs on the
  /// scheduler's calling thread from deterministic job-order state, so
  /// whatever it observes is bitwise identical for any thread count.
  void setRoundHook(std::function<void(const RoundObservation&)> hook) {
    roundHook_ = std::move(hook);
  }

  /// Whether every job has completed or been quarantined.
  bool completed() const { return completed_; }

  /// The scenario as scheduled (derived seeds filled in).
  const Scenario& scenario() const { return scenario_; }
  /// The cross-job cache (nullptr when the scenario disables it).
  const eval::SharedEvalCache* sharedCache() const { return shared_.get(); }
  /// Strategy of job `i` (post-run inspection; engines stay alive with the
  /// scheduler).
  const opt::Strategy& strategy(std::size_t i) const { return *jobs_[i].strategy; }

 private:
  /// Jobs are constructed by orch::buildJobs — the pass shared with
  /// DistributedScheduler so both agree bitwise on seeds, scopes, engine
  /// wiring, and validation errors.
  using Job = BuiltJob;

  /// Write the journal file (Scenario::journalPath must be set).
  void writeJournalFile() const;
  /// One JobResult row per job from current strategy/engine state.
  std::vector<JobResult> harvest();

  Scenario scenario_;
  std::shared_ptr<eval::SharedEvalCache> shared_;
  std::vector<Job> jobs_;
  std::function<void(const RoundObservation&)> roundHook_;
  std::size_t round_ = 0;    ///< scheduling rounds completed so far
  bool started_ = false;     ///< a run() or resume() happened
  bool completed_ = false;   ///< no runnable jobs remain
};

}  // namespace trdse::orch
