#include "orch/scheduler.hpp"

#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "orch/barrier.hpp"
#include "orch/journal.hpp"

namespace trdse::orch {

Scheduler::Scheduler(Scenario scenario)
    : Scheduler(std::move(scenario), nullptr) {}

Scheduler::Scheduler(Scenario scenario,
                     std::shared_ptr<eval::SharedEvalCache> externalCache) {
  JobSet set = buildJobs(std::move(scenario), std::move(externalCache));
  scenario_ = std::move(set.scenario);
  shared_ = std::move(set.shared);
  jobs_ = std::move(set.jobs);
}

Scheduler::~Scheduler() = default;

void Scheduler::enableJournal(const std::string& journalPath) {
  if (started_)
    throw std::logic_error(
        "Scheduler::enableJournal: must be called before the first "
        "run()/resume()");
  if (journalPath.empty())
    throw std::invalid_argument("Scheduler::enableJournal: empty path");
  for (const Job& job : jobs_)
    if (!job.strategy->supportsCheckpoint())
      throw std::invalid_argument(
          "Scheduler::enableJournal: job \"" + job.spec.name +
          "\" cannot run under a write-ahead journal: strategy \"" +
          job.spec.strategy + "\" does not support checkpointing");
  scenario_.journalPath = journalPath;
}

void Scheduler::writeJournalFile() const {
  JournalState state;
  state.round = round_;
  state.jobs.reserve(jobs_.size());
  for (const Job& job : jobs_)
    state.jobs.push_back(journalRow(job, job.strategy->saveCheckpointBlob()));
  // journalCache=false (serve daemon): the shared cache outlives this
  // scenario and is persisted separately; the journal then omits its section.
  writeJournal(scenario_.journalPath, scenario_, state,
               scenario_.journalCache ? shared_.get() : nullptr);
}

void Scheduler::resume(const std::string& journalPath) {
  if (started_)
    throw std::logic_error(
        "Scheduler::resume: must be called before the first run()");
  started_ = true;
  const JournalState state =
      readJournal(journalPath, scenario_,
                  scenario_.journalCache ? shared_.get() : nullptr);
  round_ = state.round;
  for (std::size_t i = 0; i < jobs_.size(); ++i)
    restoreJob(jobs_[i], state.jobs[i], journalPath);
}

std::vector<JobResult> Scheduler::run(std::size_t maxRounds) {
  if (completed_)
    throw std::logic_error("Scheduler::run: a scheduler runs exactly once");
  started_ = true;

  common::ThreadPool pool(scenario_.threads);
  const bool journaling = !scenario_.journalPath.empty();
  std::vector<wire::JobRoundReport> reports(jobs_.size());
  std::size_t roundsThisCall = 0;

  while (maxRounds == 0 || roundsThisCall < maxRounds) {
    const std::vector<std::size_t> runnable =
        grantRound(jobs_, scenario_.slice);
    if (runnable.empty()) {
      completed_ = true;
      break;
    }
    ++round_;
    ++roundsThisCall;

    // Concurrent step phase: jobs are independent (own engine, own RNG
    // streams) and the shared cache is read-only during the round, so the
    // fan-out is free of cross-job races and outcomes are thread-count
    // invariant. A throwing strategy is contained to its own report and
    // quarantined at the barrier — one sick job must not tear down the
    // whole scenario.
    pool.parallelFor(runnable.size(), [&](std::size_t r) {
      const std::size_t i = runnable[r];
      reports[i] = stepJob(jobs_[i], i);
    });

    for (const std::size_t i :
         applyRoundBarrier(jobs_, runnable, reports, shared_.get()))
      jobs_[i].strategy->saveCheckpoint(jobs_[i].spec.checkpointPath);

    // Write-ahead journal at the barrier, after every state transition of
    // this round is final. A kill at any point between two journal writes
    // loses at most the rounds since the last one — never consistency.
    if (journaling && round_ % scenario_.journalEvery == 0)
      writeJournalFile();

    // Round hook, after the journal: an observer acting on the observation
    // (the daemon persisting its cache, streaming progress) sees a state the
    // journal can already reproduce. All fields come from job-order
    // deterministic state, so observations are thread-count invariant.
    if (roundHook_) {
      RoundObservation obs;
      obs.round = round_;
      obs.jobs.reserve(runnable.size());
      for (const std::size_t i : runnable) {
        const Job& job = jobs_[i];
        RoundObservation::JobProgress p;
        p.index = i;
        p.granted = job.granted;
        const opt::StrategyOutcome& out = job.strategy->outcome();
        p.iterations = job.iterations;
        p.finished = job.finished;
        p.quarantined = job.result.quarantined;
        p.solved = out.solved;
        const eval::EvalStats& stats = job.strategy->engine().stats();
        p.sharedHits = stats.sharedHits;
        p.simulated = stats.simulated;
        p.bestValue = out.bestValue;
        obs.jobs.push_back(p);
      }
      roundHook_(obs);
    }
  }

  // Completion check also when maxRounds cut the loop short before the
  // empty-runnable test re-ran.
  if (!completed_) completed_ = !anyRunnable(jobs_);
  // The final state is always journaled, whatever the cadence: a completed
  // run's journal must describe the completed run.
  if (journaling && completed_ && round_ % scenario_.journalEvery != 0)
    writeJournalFile();

  return harvest();
}

std::vector<JobResult> Scheduler::harvest() {
  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (Job& job : jobs_) {
    job.result.outcome = job.strategy->outcome();
    job.result.failures = job.strategy->engine().stats().failures;
    if (job.result.quarantined) {
      // A quarantined strategy never reached its own finish line, so its
      // cached outcome may predate the final harvest (e.g. an unsnapshotted
      // ledger). Its report must still account for what it consumed.
      job.result.outcome.ledger = job.strategy->engine().ledger();
      job.result.outcome.evalStats = job.strategy->engine().stats();
    }
    results.push_back(job.result);
  }
  return results;
}

}  // namespace trdse::orch
