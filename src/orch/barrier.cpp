#include "orch/barrier.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

namespace trdse::orch {

namespace {

bool runnable(const BuiltJob& job) {
  return !job.finished && !job.result.quarantined;
}

}  // namespace

std::vector<std::size_t> grantRound(std::vector<BuiltJob>& jobs,
                                    std::size_t slice) {
  std::vector<std::size_t> granted;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    BuiltJob& job = jobs[i];
    if (!runnable(job)) continue;
    job.granted = std::min(job.spec.budget, job.granted + slice);
    granted.push_back(i);
  }
  return granted;
}

bool anyRunnable(const std::vector<BuiltJob>& jobs) {
  return std::any_of(jobs.begin(), jobs.end(), runnable);
}

wire::JobRoundReport stepJob(BuiltJob& job, std::size_t jobIndex) {
  wire::JobRoundReport rep;
  rep.jobIndex = jobIndex;
  try {
    job.strategy->step(job.granted);
  } catch (const std::exception& e) {
    rep.stepError = e.what()[0] != '\0' ? e.what() : "unknown error";
  } catch (...) {
    rep.stepError = "non-standard exception";
  }
  eval::EvalEngine& engine = job.strategy->engine();
  rep.finished = job.strategy->finished();
  rep.iterations = job.strategy->outcome().iterations;
  rep.stats = engine.stats();
  rep.firstFailure = engine.firstFailure();
  if (rep.stepError.empty())
    rep.publishes = engine.drainPublishJournal();
  return rep;
}

std::vector<std::size_t> applyRoundBarrier(
    std::vector<BuiltJob>& jobs, const std::vector<std::size_t>& runnable,
    const std::vector<wire::JobRoundReport>& reports,
    eval::SharedEvalCache* shared) {
  std::vector<char> moved(jobs.size(), 0);
  for (const std::size_t i : runnable) {
    BuiltJob& job = jobs[i];
    const wire::JobRoundReport& rep = reports[i];
    ++job.result.rounds;
    moved[i] = rep.iterations != job.iterations;
    job.iterations = rep.iterations;
    job.finished = rep.finished;
  }

  // Results simulated this round become visible to later rounds only — the
  // shared-cache determinism contract. A job that threw publishes nothing:
  // how far it got before throwing is not barrier state.
  for (const std::size_t i : runnable) {
    const wire::JobRoundReport& rep = reports[i];
    if (!rep.stepError.empty()) continue;
    if (shared != nullptr) shared->publish(jobs[i].scope, rep.publishes);
    jobs[i].result.published += rep.publishes.size();
  }

  for (const std::size_t i : runnable) {
    JobResult& result = jobs[i].result;
    const wire::JobRoundReport& rep = reports[i];
    if (!rep.stepError.empty()) {
      result.quarantined = true;
      result.quarantineReason = "step threw: " + rep.stepError;
    } else if (rep.stats.failures > jobs[i].spec.maxFailures) {
      result.quarantined = true;
      result.quarantineReason =
          quarantineReasonFor(jobs[i].spec, rep.stats, rep.firstFailure);
    }
  }

  // Quarantined jobs stop snapshotting: their last good checkpoint stays.
  std::vector<std::size_t> due;
  for (const std::size_t i : runnable) {
    BuiltJob& job = jobs[i];
    if (job.result.quarantined || job.spec.checkpointEvery == 0 ||
        job.result.rounds % job.spec.checkpointEvery != 0)
      continue;
    due.push_back(i);
    ++job.result.checkpoints;
  }

  // A fully granted job that neither finishes nor consumes anything would
  // loop forever; strategies signal inability to proceed via finished(), so
  // this is a contract violation to surface loudly, not to spin on.
  for (const std::size_t i : runnable) {
    const BuiltJob& job = jobs[i];
    if (!job.result.quarantined && job.granted >= job.spec.budget &&
        !job.finished && !moved[i])
      throw std::logic_error("Scheduler: job \"" + job.spec.name +
                             "\" makes no progress (strategy \"" +
                             job.spec.strategy +
                             "\" violates the step() contract)");
  }
  return due;
}

}  // namespace trdse::orch
