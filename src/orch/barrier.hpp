// The round barrier — the one copy of the orchestrator's determinism
// contract.
//
// orch::Scheduler (threads in one process) and orch::DistributedScheduler
// (a coordinator over forked workers) differ only in *where* a round's jobs
// step. Both open a round with grantRound(), step each granted job through
// stepJob() — in a thread pool, or inside a worker that ships the report
// back over the wire — and close it with applyRoundBarrier(), which turns
// the round's job reports into scheduling state in job-index order. Because
// every decision is made here from reported, deterministic state, outcomes,
// ledgers, quarantine reasons, and shared-cache contents are bitwise
// identical for any thread or worker count.
#pragma once

#include <cstddef>
#include <vector>

#include "eval/shared_cache.hpp"
#include "orch/job_set.hpp"
#include "orch/wire.hpp"

namespace trdse::orch {

/// Open a round: grant every job that is neither finished nor quarantined,
/// in job-index order, `slice` more EDA blocks of its own budget (the
/// round-robin fairness rule, a function of the scenario alone). Returns
/// those jobs; empty means the run is complete.
std::vector<std::size_t> grantRound(std::vector<BuiltJob>& jobs,
                                    std::size_t slice);

/// Whether any job still takes rounds (not finished, not quarantined).
bool anyRunnable(const std::vector<BuiltJob>& jobs);

/// Step `job` to its grant and report the round. A throwing strategy is
/// contained in the report's stepError (the barrier quarantines it); the
/// engine's publish journal is drained only when the step returned, so a
/// job cut short publishes nothing. strategyBlob is left empty.
wire::JobRoundReport stepJob(BuiltJob& job, std::size_t jobIndex);

/// Apply one round's reports (`reports` is indexed by job; entries of the
/// `runnable` jobs are read) in job-index order, one pass per step:
///   1. progress — rounds, finished, iterations;
///   2. publish — each clean job's drained results enter `shared` (when
///      non-null), so they are visible to later rounds only;
///   3. quarantine — a step that threw, or failures past max_failures;
///   4. checkpoint cadence — counted here, written by the caller;
///   5. stall guard — a fully granted, unfinished job that consumed nothing
///      violates the Strategy::step contract: std::logic_error.
/// Returns the jobs due a periodic checkpoint this round.
std::vector<std::size_t> applyRoundBarrier(
    std::vector<BuiltJob>& jobs, const std::vector<std::size_t>& runnable,
    const std::vector<wire::JobRoundReport>& reports,
    eval::SharedEvalCache* shared);

}  // namespace trdse::orch
