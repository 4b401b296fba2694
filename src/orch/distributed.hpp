// Multi-process distributed orchestration — coordinator/worker scheduling
// over the checkpoint wire format.
//
// The DistributedScheduler is the orch::Scheduler's process-parallel sibling
// for fleet-scale scenario sweeps (ROADMAP north-star; DNN-Opt and AutoCkt
// both lean on parallel simulator farms for their sample throughput). It
// forks `Scenario::workers` worker processes over socketpairs and shards
// whole jobs across them by index. Workers step their jobs with the same
// orch::stepJob the in-process Scheduler uses; every report, ledger delta,
// and cache publish crosses the wire as a typed frame of the io checkpoint
// container (orch/wire.hpp).
//
// Determinism contract — the same bar orch_test holds thread counts to:
// outcomes, ledgers (cached/failed flags included), per-job stats, and
// shared-cache counters are **bitwise identical for any worker count,
// including 0** (0 = delegate to the in-process Scheduler). The proof
// obligations, discharged at round barriers in job-index order:
//   * Grant sequences are computed coordinator-side with the Scheduler's
//     exact formula — never from worker timing.
//   * Workers step with a *mirror* of the shared cache (the fork-time
//     copy-on-write image of the master, re-synced at every barrier), so a
//     lookup during round R sees exactly the entries published through
//     round R-1 — the same state the in-process engines see.
//   * Freshly simulated results ship as publish lists inside the round
//     reports (EvalEngine::drainPublishJournal).
//   * The coordinator closes each round with orch::applyRoundBarrier — the
//     in-process Scheduler's own barrier function, not a copy of it — so
//     publish order, quarantine decisions and reasons, checkpoint cadence,
//     and the stall guard cannot differ from workers = 0. The write-ahead
//     journal follows, through the same journalRow/restoreJob mapping.
//   * Mirror-probe hit/miss tallies ship as per-shard deltas and fold into
//     the master's counters (SharedEvalCache::addProbes); shard assignment
//     is a pure key hash and sums commute, so totals match bitwise.
//
// Fault tolerance (PR 6 integration): a worker that dies (or stalls past
// `worker_timeout`) is SIGKILLed, reaped, re-forked, restored from the
// per-job checkpoint blobs of the last barrier, and its in-flight round is
// re-dispatched — deterministically, because the round's inputs are a pure
// function of barrier state. The event lands in the journal's "events"
// section and on stderr via events(). SIGKILL of the coordinator *or* a
// worker followed by --resume therefore reproduces the uninterrupted run's
// stdout byte-for-byte. Jobs whose strategy cannot checkpoint still run
// distributed, but a worker death with such a job in flight is a hard
// WireError (nothing to restore from) — the CI smoke pairs them with
// workers whose death is never induced.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "orch/scheduler.hpp"
#include "orch/wire.hpp"

namespace trdse::orch {

/// Coordinator of a multi-process run (see file header). With
/// `Scenario::workers == 0` it delegates to the in-process Scheduler, so
/// callers can treat the worker count as a pure throughput knob.
class DistributedScheduler {
 public:
  /// Build every job up front via orch::buildJobs (workers inherit the
  /// constructed jobs at fork). Throws std::invalid_argument on scenario
  /// errors, including engine thread pools that cannot survive a fork
  /// (opt.eval_threads != 1 with workers > 0).
  explicit DistributedScheduler(Scenario scenario);

  ~DistributedScheduler();
  DistributedScheduler(const DistributedScheduler&) = delete;
  DistributedScheduler& operator=(const DistributedScheduler&) = delete;

  /// Run every job to completion (or `maxRounds` scheduling rounds) and
  /// return one row per job, in job order — the Scheduler contract, bitwise.
  /// Workers are forked lazily on the first call and shut down when the run
  /// completes. Throws wire::WireError when a worker death cannot be
  /// recovered (non-checkpointable strategy in flight, respawn loop).
  std::vector<JobResult> run(std::size_t maxRounds = 0);

  /// Restore a journaled run (Scheduler::resume contract). Must precede the
  /// first run() — strategies are restored coordinator-side and the workers
  /// fork from the restored image. Journals are interchangeable with the
  /// in-process Scheduler's (worker knobs are not fingerprinted).
  void resume(const std::string& journalPath);

  /// Whether every job has completed or been quarantined.
  bool completed() const;

  /// The scenario as scheduled (derived seeds filled in).
  const Scenario& scenario() const;
  /// The master cross-job cache (nullptr when disabled).
  const eval::SharedEvalCache* sharedCache() const;

  /// Deterministic per-worker attribution for reports: owned jobs and the
  /// merged mirror-probe tallies. Empty when workers == 0 (in-process path).
  /// Worker restarts are deliberately *not* here — they depend on wall-clock
  /// faults — but in events().
  struct WorkerReport {
    std::vector<std::string> jobs;  ///< owned job names, job-index order
    std::size_t sharedHits = 0;     ///< mirror-probe hits merged so far
    std::size_t sharedMisses = 0;   ///< mirror-probe misses merged so far
  };
  const std::vector<WorkerReport>& workerReports() const { return reports_; }

  /// Worker-failure log (death/stall + re-dispatch records) — informational,
  /// journaled under "events", never part of deterministic stdout.
  const std::vector<std::string>& events() const { return events_; }

  /// Test hook (also surfaced as trdse run --debug-kill-worker): worker
  /// `worker` _exit()s upon *receiving* the run-round frame of global round
  /// `round` (1-based) — a deterministic stand-in for SIGKILL mid-round.
  /// Fires once; the respawned worker does not inherit it. Must be set
  /// before the first run().
  void debugKillWorker(std::size_t worker, std::size_t round);

 private:
  struct WorkerSlot {
    pid_t pid = -1;
    wire::FrameChannel ch;
    std::vector<std::size_t> owned;  ///< job indices, ascending
    bool stepping = false;  ///< round dispatched, result pending
    std::size_t consecutiveDeaths = 0;  ///< respawns since last good round
    /// Stall deadline of the in-flight round (worker_timeout > 0 only).
    std::chrono::steady_clock::time_point deadline{};
  };

  std::size_t workerOf(std::size_t jobIndex) const;
  void forkWorkers();
  void spawnWorker(std::size_t w);
  /// Kill/reap `w` (if alive), re-fork it, restore its jobs from the last
  /// barrier blobs, and re-dispatch its round if one was in flight.
  void respawnWorker(std::size_t w, const std::string& why);
  void dispatchRound(std::size_t w);
  void collectRoundResults();
  void broadcastBarrier(const std::vector<std::size_t>& checkpointJobs);
  void writeJournalFile() const;
  std::vector<JobResult> harvestDistributed();
  void shutdownWorkers();

  Scenario scenario_;
  std::shared_ptr<eval::SharedEvalCache> shared_;
  std::vector<BuiltJob> jobs_;
  std::size_t round_ = 0;
  bool started_ = false;
  bool completed_ = false;
  bool forked_ = false;

  std::vector<WorkerSlot> workers_;
  std::vector<WorkerReport> reports_;
  std::vector<std::string> events_;
  /// Per-job strategy blob as of the last barrier the job stepped in (empty
  /// until first report; always empty for non-checkpointable strategies).
  std::vector<std::string> lastBlobs_;
  /// This round's granted jobs (grantRound), valid until the next round.
  std::vector<std::size_t> runnable_;
  /// This round's reports, indexed by job (valid at the barrier).
  std::vector<wire::JobRoundReport> roundReports_;
  std::vector<char> haveReport_;
  /// Pending (worker, round) debug kills (see debugKillWorker).
  std::vector<std::pair<std::size_t, std::size_t>> debugKills_;

  /// workers == 0: the in-process delegate (everything above stays unused).
  std::unique_ptr<Scheduler> inner_;
};

}  // namespace trdse::orch
