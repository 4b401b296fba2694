#include "orch/distributed.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "orch/barrier.hpp"
#include "orch/journal.hpp"

namespace trdse::orch {

namespace {

using wire::WireError;

// ---- Worker process ------------------------------------------------------

/// The worker's whole life: serve coordinator frames until shutdown/EOF.
/// Runs in the forked child, which inherited the fully built `jobs` and the
/// master cache image (now its read mirror). Exits via _Exit only — the
/// child must never run the parent's atexit/static-destructor state.
[[noreturn]] void workerMain(std::size_t workerIndex, wire::FrameChannel ch,
                             const Scenario& scenario,
                             std::vector<BuiltJob>& jobs,
                             const std::shared_ptr<eval::SharedEvalCache>& mirror,
                             const std::vector<std::size_t>& owned) {
  const std::string src = "worker " + std::to_string(workerIndex);
  try {
    // Probe baselines: deltas reported per round are (current - baseline),
    // so the coordinator merges each probe into the master exactly once.
    // The fork image's counters equal the master's at fork time (which is
    // also why a respawned worker starts consistent).
    std::vector<std::pair<std::size_t, std::size_t>> baseline;
    if (mirror != nullptr) {
      baseline.resize(mirror->shardCount());
      for (std::size_t s = 0; s < baseline.size(); ++s) {
        const eval::SharedEvalCache::ShardCounters c = mirror->shardStats(s);
        baseline[s] = {c.hits, c.misses};
      }
    }

    common::ThreadPool pool(scenario.threads);
    std::vector<std::size_t> grantJobs, grantTargets;
    std::vector<wire::JobRoundReport> reports;

    for (;;) {
      const io::CheckpointReader msg = ch.recv(src);
      const std::string kind = msg.kind();

      if (kind == wire::kMsgShutdown) std::_Exit(0);

      if (kind == wire::kMsgRunRound) {
        io::SectionReader r = msg.section("round");
        const std::uint64_t round = r.u64();
        const bool die = r.boolean();
        const std::uint64_t n = r.u64();
        grantJobs.clear();
        grantTargets.clear();
        for (std::uint64_t k = 0; k < n; ++k) {
          grantJobs.push_back(r.u64());
          grantTargets.push_back(r.u64());
        }
        r.expectEnd();
        // Deterministic kill hook (--debug-kill-worker): emulate a SIGKILL
        // at the most adversarial instant — round received, nothing stepped.
        if (die) std::_Exit(137);

        reports.resize(grantJobs.size());
        pool.parallelFor(grantJobs.size(), [&](std::size_t k) {
          BuiltJob& job = jobs.at(grantJobs[k]);
          job.granted = grantTargets[k];
          reports[k] = stepJob(job, grantJobs[k]);
        });

        io::CheckpointWriter out = wire::makeMessage(wire::kMsgRoundResult);
        out.section("round").u64(round);
        io::SectionWriter& js = out.section("jobs");
        js.u64(grantJobs.size());
        for (std::size_t k = 0; k < grantJobs.size(); ++k) {
          // Moved out so each blob is freed once written: only the frame
          // holds every job's snapshot at once.
          wire::JobRoundReport rep = std::move(reports[k]);
          const BuiltJob& job = jobs[grantJobs[k]];
          if (job.strategy->supportsCheckpoint())
            rep.strategyBlob = job.strategy->saveCheckpointBlob();
          wire::writeJobRoundReport(js, rep);
        }
        io::SectionWriter& ds = out.section("deltas");
        std::vector<wire::ShardDelta> deltas;
        if (mirror != nullptr) {
          for (std::size_t s = 0; s < baseline.size(); ++s) {
            const eval::SharedEvalCache::ShardCounters c = mirror->shardStats(s);
            const std::size_t dh = c.hits - baseline[s].first;
            const std::size_t dm = c.misses - baseline[s].second;
            if (dh != 0 || dm != 0) deltas.push_back({s, dh, dm});
            baseline[s] = {c.hits, c.misses};
          }
        }
        wire::writeShardDeltas(ds, deltas);
        ch.send(out);
        continue;
      }

      if (kind == wire::kMsgBarrier) {
        io::SectionReader pb = msg.section("publishes");
        const std::uint64_t m = pb.u64();
        for (std::uint64_t k = 0; k < m; ++k) {
          const std::size_t jobIndex = pb.u64();
          const std::vector<wire::PublishEntry> entries =
              wire::readPublishes(pb);
          if (mirror != nullptr)
            mirror->publish(jobs.at(jobIndex).scope, entries);
        }
        pb.expectEnd();
        io::SectionReader cp = msg.section("checkpoints");
        const std::vector<std::size_t> paths = cp.indexVec();
        cp.expectEnd();
        for (const std::size_t i : paths)
          if (std::find(owned.begin(), owned.end(), i) != owned.end())
            jobs.at(i).strategy->saveCheckpoint(jobs[i].spec.checkpointPath);
        continue;
      }

      if (kind == wire::kMsgRestore) {
        io::SectionReader r = msg.section("jobs");
        const std::uint64_t n = r.u64();
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::size_t i = r.u64();
          const std::string blob = r.str();
          jobs.at(i).strategy->restoreCheckpointBlob(
              blob, src + "[job " + jobs[i].spec.name + "]");
        }
        r.expectEnd();
        ch.send(wire::makeMessage(wire::kMsgRestoreAck));
        continue;
      }

      if (kind == wire::kMsgHarvest) {
        io::CheckpointWriter out = wire::makeMessage(wire::kMsgHarvestResult);
        io::SectionWriter& js = out.section("jobs");
        js.u64(owned.size());
        for (const std::size_t i : owned) {
          wire::JobHarvest h;
          h.jobIndex = i;
          h.outcome = jobs[i].strategy->outcome();
          h.engineLedger = jobs[i].strategy->engine().ledger();
          h.engineStats = jobs[i].strategy->engine().stats();
          wire::writeJobHarvest(js, h);
        }
        ch.send(out);
        continue;
      }

      throw WireError(src + ": unexpected message kind \"" + kind + "\"");
    }
  } catch (const WireError& e) {
    // EOF/EPIPE means the coordinator is gone (clean exit — PDEATHSIG also
    // covers a SIGKILLed coordinator on Linux); anything else is a protocol
    // failure worth a loud death.
    const bool peerGone = std::strstr(e.what(), "peer closed") != nullptr;
    if (!peerGone)
      std::fprintf(stderr, "trdse worker %zu: %s\n", workerIndex, e.what());
    std::_Exit(peerGone ? 0 : 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse worker %zu: %s\n", workerIndex, e.what());
    std::_Exit(1);
  }
}

/// Reap `pid` with a bounded grace period, escalating to SIGKILL — a stuck
/// worker must never wedge shutdown or a respawn. The poll starts at 200us
/// and backs off: a worker told to shut down exits within microseconds, and
/// this wait sits on the scheduler's teardown critical path.
void reap(pid_t pid, int graceMs) {
  int status = 0;
  long stepUs = 200;
  for (long waitedUs = 0; waitedUs < static_cast<long>(graceMs) * 1000;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    ::usleep(static_cast<useconds_t>(stepUs));
    waitedUs += stepUs;
    if (stepUs < 10000) stepUs *= 2;
  }
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

// ---- Coordinator ---------------------------------------------------------

DistributedScheduler::DistributedScheduler(Scenario scenario) {
  if (scenario.workers == 0) {
    inner_ = std::make_unique<Scheduler>(std::move(scenario));
    return;
  }
  JobSet set = buildJobs(std::move(scenario));
  scenario_ = std::move(set.scenario);
  shared_ = std::move(set.shared);
  jobs_ = std::move(set.jobs);

  // Workers fork lazily at the first run(); an engine-internal thread pool
  // would not survive the fork (the child inherits the pool's bookkeeping
  // but none of its threads — parallelFor would wait forever).
  for (const BuiltJob& job : jobs_)
    if (job.strategy->engine().config().threads != 1)
      throw std::invalid_argument(
          "scenario " + scenario_.sourceName + ": job \"" + job.spec.name +
          "\": per-engine eval threads != 1 cannot run under workers > 0 "
          "(worker processes fork after engine construction); use the "
          "scenario-level threads knob instead");

  const std::size_t n = std::min(scenario_.workers, jobs_.size());
  workers_.resize(n);
  reports_.resize(n);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    workers_[i % n].owned.push_back(i);
    reports_[i % n].jobs.push_back(jobs_[i].spec.name);
  }
  lastBlobs_.resize(jobs_.size());
  roundReports_.resize(jobs_.size());
  haveReport_.assign(jobs_.size(), 0);
}

DistributedScheduler::~DistributedScheduler() {
  if (inner_ != nullptr) return;
  try {
    shutdownWorkers();
  } catch (...) {
    // Destructors stay silent; shutdownWorkers escalates to SIGKILL itself.
  }
}

std::size_t DistributedScheduler::workerOf(std::size_t jobIndex) const {
  return jobIndex % workers_.size();
}

void DistributedScheduler::debugKillWorker(std::size_t worker,
                                           std::size_t round) {
  if (inner_ != nullptr) return;  // no workers to kill in-process
  debugKills_.emplace_back(worker, round);
}

void DistributedScheduler::spawnWorker(std::size_t w) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw WireError(std::string("socketpair: ") + std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw WireError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Keep only our own worker end: a sibling still holding a dead
    // worker's coordinator-side fd would mask that worker's EOF forever.
    ::close(fds[0]);
#if defined(__linux__) && defined(PR_SET_PDEATHSIG)
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the coordinator
#endif
    for (WorkerSlot& other : workers_) other.ch.close();
    workerMain(w, wire::FrameChannel(fds[1]), scenario_, jobs_, shared_,
               workers_[w].owned);
  }
  ::close(fds[1]);
  WorkerSlot& slot = workers_[w];
  slot.pid = pid;
  slot.ch = wire::FrameChannel(fds[0]);
  slot.stepping = false;
}

void DistributedScheduler::forkWorkers() {
  for (std::size_t w = 0; w < workers_.size(); ++w) spawnWorker(w);
  forked_ = true;
}

void DistributedScheduler::respawnWorker(std::size_t w,
                                         const std::string& why) {
  WorkerSlot& slot = workers_[w];
  if (++slot.consecutiveDeaths > 3)
    throw WireError("worker " + std::to_string(w) + " died " +
                    std::to_string(slot.consecutiveDeaths) +
                    " times without completing a round (" + why +
                    ") — giving up; see stderr for the worker's output");
  // Recovery replays from the last barrier's checkpoint blobs; a job that
  // has stepped but cannot checkpoint has no replayable state.
  for (const std::size_t i : slot.owned)
    if (jobs_[i].result.rounds > 0 && lastBlobs_[i].empty())
      throw WireError(
          "worker " + std::to_string(w) + " " + why + " with job \"" +
          jobs_[i].spec.name +
          "\" in flight, whose strategy cannot checkpoint — the round "
          "cannot be replayed (use a checkpointable strategy or workers=0)");

  if (slot.pid >= 0) {
    ::kill(slot.pid, SIGKILL);
    reap(slot.pid, 0);
    slot.pid = -1;
  }
  slot.ch.close();

  const bool wasStepping = slot.stepping;
  events_.push_back("round " + std::to_string(round_) + ": worker " +
                    std::to_string(w) + " " + why +
                    (wasStepping ? "; respawned and round re-dispatched"
                                 : "; respawned"));
  std::fprintf(stderr, "trdse: %s\n", events_.back().c_str());

  spawnWorker(w);
  try {
    // The fresh fork already holds the master's current cache image and the
    // coordinator-side (never-stepped) strategies; ship the blobs of every
    // owned job that has progressed to bring it to the last barrier.
    io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRestore);
    io::SectionWriter& js = msg.section("jobs");
    std::size_t count = 0;
    for (const std::size_t i : slot.owned)
      if (!lastBlobs_[i].empty()) ++count;
    js.u64(count);
    for (const std::size_t i : slot.owned) {
      if (lastBlobs_[i].empty()) continue;
      js.u64(i);
      js.str(lastBlobs_[i]);
    }
    slot.ch.send(msg);
    const io::CheckpointReader ack =
        slot.ch.recv("worker " + std::to_string(w) + " (restore ack)");
    if (ack.kind() != wire::kMsgRestoreAck)
      throw WireError("worker " + std::to_string(w) +
                      ": expected restore ack, got \"" + ack.kind() + "\"");
    if (wasStepping) dispatchRound(w);
  } catch (const WireError& e) {
    respawnWorker(w, std::string("died during recovery (") + e.what() + ")");
  }
}

void DistributedScheduler::dispatchRound(std::size_t w) {
  WorkerSlot& slot = workers_[w];
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRunRound);
  io::SectionWriter& r = msg.section("round");
  r.u64(round_);
  bool die = false;
  for (auto it = debugKills_.begin(); it != debugKills_.end(); ++it)
    if (it->first == w && it->second == round_) {
      die = true;
      debugKills_.erase(it);  // fire once — the respawn must survive
      break;
    }
  r.boolean(die);
  std::vector<std::size_t> mine;
  for (const std::size_t i : runnable_)
    if (workerOf(i) == w) mine.push_back(i);
  r.u64(mine.size());
  for (const std::size_t i : mine) {
    r.u64(i);
    r.u64(jobs_[i].granted);
  }
  slot.stepping = true;
  if (scenario_.workerTimeoutSeconds > 0.0)
    slot.deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            scenario_.workerTimeoutSeconds));
  try {
    slot.ch.send(msg);
  } catch (const WireError& e) {
    respawnWorker(w, std::string("died before the round reached it (") +
                         e.what() + ")");
  }
}

void DistributedScheduler::collectRoundResults() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> idx;
  for (;;) {
    fds.clear();
    idx.clear();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].stepping) continue;
      fds.push_back({workers_[w].ch.fd(), POLLIN, 0});
      idx.push_back(w);
    }
    if (fds.empty()) return;

    int timeoutMs = -1;
    const auto now = std::chrono::steady_clock::now();
    if (scenario_.workerTimeoutSeconds > 0.0) {
      for (const std::size_t w : idx) {
        const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                                workers_[w].deadline - now)
                                .count();
        const int ms = remain < 0 ? 0 : static_cast<int>(remain) + 1;
        if (timeoutMs < 0 || ms < timeoutMs) timeoutMs = ms;
      }
    }

    const int rc = ::poll(fds.data(), fds.size(), timeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("poll: ") + std::strerror(errno));
    }
    if (rc == 0) {
      // Deadline sweep: kill and re-dispatch every stepping worker past it.
      const auto late = std::chrono::steady_clock::now();
      for (std::size_t w = 0; w < workers_.size(); ++w)
        if (workers_[w].stepping && late >= workers_[w].deadline) {
          respawnWorker(w, "stalled past worker_timeout");
          break;  // slots changed; rebuild the poll set
        }
      continue;
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t w = idx[k];
      try {
        io::CheckpointReader msg =
            workers_[w].ch.recv("worker " + std::to_string(w));
        if (msg.kind() != wire::kMsgRoundResult)
          throw WireError("worker " + std::to_string(w) +
                          ": unexpected message kind \"" + msg.kind() +
                          "\" during a round");
        io::SectionReader rr = msg.section("round");
        const std::uint64_t round = rr.u64();
        rr.expectEnd();
        if (round != round_)
          throw WireError("worker " + std::to_string(w) +
                          " reported round " + std::to_string(round) +
                          " during round " + std::to_string(round_));
        io::SectionReader js = msg.section("jobs");
        const std::uint64_t n = js.u64();
        for (std::uint64_t j = 0; j < n; ++j) {
          wire::JobRoundReport rep = wire::readJobRoundReport(js);
          if (rep.jobIndex >= jobs_.size() || workerOf(rep.jobIndex) != w)
            throw WireError("worker " + std::to_string(w) +
                            " reported job index " +
                            std::to_string(rep.jobIndex) +
                            " it does not own");
          const std::size_t ji = rep.jobIndex;
          roundReports_[ji] = std::move(rep);
          haveReport_[ji] = 1;
        }
        js.expectEnd();
        io::SectionReader ds = msg.section("deltas");
        const std::vector<wire::ShardDelta> deltas =
            wire::readShardDeltas(ds);
        ds.expectEnd();
        // Merging on receipt is safe: sums commute, and a killed worker's
        // partial round is never received, so each probe merges once.
        for (const wire::ShardDelta& d : deltas) {
          if (shared_ != nullptr) shared_->addProbes(d.shard, d.hits, d.misses);
          reports_[w].sharedHits += d.hits;
          reports_[w].sharedMisses += d.misses;
        }
        workers_[w].stepping = false;
        workers_[w].consecutiveDeaths = 0;
      } catch (const WireError& e) {
        respawnWorker(w, std::string("died mid-round (") + e.what() + ")");
      } catch (const io::CheckpointError& e) {
        respawnWorker(w, std::string("sent a corrupt frame (") + e.what() +
                             ")");
      }
      break;  // slots may have changed; rebuild the poll set
    }
  }
}

void DistributedScheduler::broadcastBarrier(
    const std::vector<std::size_t>& checkpointJobs) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgBarrier);
  msg.section("round").u64(round_);
  io::SectionWriter& pb = msg.section("publishes");
  // The publish lists applyRoundBarrier just inserted into the master, so
  // every mirror ends the round holding the master's entries.
  std::vector<std::size_t> publishing;
  for (const std::size_t i : runnable_)
    if (roundReports_[i].stepError.empty() &&
        !roundReports_[i].publishes.empty())
      publishing.push_back(i);
  pb.u64(publishing.size());
  for (const std::size_t i : publishing) {
    pb.u64(i);
    wire::writePublishes(pb, roundReports_[i].publishes);
  }
  msg.section("checkpoints").indexVec(checkpointJobs);

  // Every worker gets the barrier, idle ones included, so a job's mirror is
  // current whichever worker steps it after a respawn. A worker that dies
  // here is respawned — its fresh fork image already contains this
  // barrier's master inserts — and the barrier is re-sent so instructed
  // periodic checkpoints still get written (mirror re-inserts are
  // idempotent).
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    for (;;) {
      try {
        workers_[w].ch.send(msg);
        break;
      } catch (const WireError& e) {
        respawnWorker(w, std::string("died at the barrier (") + e.what() +
                             ")");
      }
    }
  }
}

void DistributedScheduler::writeJournalFile() const {
  JournalState state;
  state.round = round_;
  state.jobs.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i)
    state.jobs.push_back(journalRow(jobs_[i], lastBlobs_[i]));
  writeJournal(scenario_.journalPath, scenario_, state, shared_.get(),
               events_);
}

std::vector<JobResult> DistributedScheduler::run(std::size_t maxRounds) {
  if (inner_ != nullptr) return inner_->run(maxRounds);
  if (completed_)
    throw std::logic_error(
        "DistributedScheduler::run: a scheduler runs exactly once");
  started_ = true;
  if (!forked_) forkWorkers();

  const bool journaling = !scenario_.journalPath.empty();
  std::size_t roundsThisCall = 0;

  while (maxRounds == 0 || roundsThisCall < maxRounds) {
    // Grants are computed here, with the in-process Scheduler's grantRound —
    // worker timing can never bend a budget sequence.
    runnable_ = grantRound(jobs_, scenario_.slice);
    if (runnable_.empty()) {
      completed_ = true;
      break;
    }
    ++round_;
    ++roundsThisCall;

    for (const std::size_t i : runnable_) haveReport_[i] = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w)
      if (std::any_of(runnable_.begin(), runnable_.end(),
                      [&](std::size_t i) { return workerOf(i) == w; }))
        dispatchRound(w);
    collectRoundResults();

    for (const std::size_t i : runnable_) {
      if (!haveReport_[i])
        throw WireError("round " + std::to_string(round_) +
                        ": no report for job \"" + jobs_[i].spec.name + "\"");
      if (!roundReports_[i].strategyBlob.empty())
        lastBlobs_[i] = roundReports_[i].strategyBlob;
    }
    broadcastBarrier(
        applyRoundBarrier(jobs_, runnable_, roundReports_, shared_.get()));
    if (journaling && round_ % scenario_.journalEvery == 0) writeJournalFile();
  }

  if (!completed_) completed_ = !anyRunnable(jobs_);
  if (journaling && completed_ && round_ % scenario_.journalEvery != 0)
    writeJournalFile();

  std::vector<JobResult> results = harvestDistributed();
  if (completed_) shutdownWorkers();
  return results;
}

std::vector<JobResult> DistributedScheduler::harvestDistributed() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    for (;;) {
      try {
        workers_[w].ch.send(wire::makeMessage(wire::kMsgHarvest));
        const io::CheckpointReader msg =
            workers_[w].ch.recv("worker " + std::to_string(w) + " (harvest)");
        if (msg.kind() != wire::kMsgHarvestResult)
          throw WireError("worker " + std::to_string(w) +
                          ": expected harvest result, got \"" + msg.kind() +
                          "\"");
        io::SectionReader js = msg.section("jobs");
        const std::uint64_t n = js.u64();
        if (n != workers_[w].owned.size())
          js.fail("harvest covers " + std::to_string(n) + " jobs, worker " +
                  std::to_string(w) + " owns " +
                  std::to_string(workers_[w].owned.size()));
        for (std::uint64_t k = 0; k < n; ++k) {
          wire::JobHarvest h = wire::readJobHarvest(js);
          if (h.jobIndex >= jobs_.size() || workerOf(h.jobIndex) != w)
            throw WireError("worker " + std::to_string(w) +
                            " harvested job index " +
                            std::to_string(h.jobIndex) + " it does not own");
          BuiltJob& job = jobs_[h.jobIndex];
          job.result.outcome = std::move(h.outcome);
          job.result.failures = h.engineStats.failures;
          if (job.result.quarantined) {
            // Same override as Scheduler::harvest: a quarantined strategy's
            // cached outcome may predate the harvest.
            job.result.outcome.ledger = std::move(h.engineLedger);
            job.result.outcome.evalStats = h.engineStats;
          }
        }
        js.expectEnd();
        break;
      } catch (const WireError& e) {
        respawnWorker(w, std::string("died at harvest (") + e.what() + ")");
      }
    }
  }
  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (const BuiltJob& job : jobs_) results.push_back(job.result);
  return results;
}

void DistributedScheduler::shutdownWorkers() {
  for (WorkerSlot& slot : workers_) {
    if (slot.pid < 0) continue;
    try {
      slot.ch.send(wire::makeMessage(wire::kMsgShutdown));
    } catch (...) {
      // Already dead — reap below.
    }
    slot.ch.close();
    reap(slot.pid, 2000);
    slot.pid = -1;
  }
}

void DistributedScheduler::resume(const std::string& journalPath) {
  if (inner_ != nullptr) {
    inner_->resume(journalPath);
    return;
  }
  if (started_)
    throw std::logic_error(
        "DistributedScheduler::resume: must be called before the first run()");
  started_ = true;
  const JournalState state = readJournal(journalPath, scenario_, shared_.get());
  round_ = state.round;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    restoreJob(jobs_[i], state.jobs[i], journalPath);
    // Workers fork from this restored image at the first run(); the blob
    // also seeds the respawn-recovery state.
    lastBlobs_[i] = state.jobs[i].strategyBlob;
  }
}

bool DistributedScheduler::completed() const {
  return inner_ != nullptr ? inner_->completed() : completed_;
}

const Scenario& DistributedScheduler::scenario() const {
  return inner_ != nullptr ? inner_->scenario() : scenario_;
}

const eval::SharedEvalCache* DistributedScheduler::sharedCache() const {
  return inner_ != nullptr ? inner_->sharedCache() : shared_.get();
}

}  // namespace trdse::orch
