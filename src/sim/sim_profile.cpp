#include "sim/sim_profile.hpp"

#include <atomic>
#include <chrono>

namespace trdse::sim {

namespace {

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gPhaseNs[4] = {};
/// This thread's phase time not yet published to gPhaseNs: the hot loops add
/// here without touching a shared cache line.
thread_local std::uint64_t tPendingNs[4] = {};

}  // namespace

bool simProfilingEnabled() {
  return gEnabled.load(std::memory_order_relaxed);
}

void setSimProfiling(bool on) {
  gEnabled.store(on, std::memory_order_relaxed);
}

SimPhaseTotals simPhaseTotals() {
  SimPhaseTotals t;
  t.deviceEvalNs = gPhaseNs[0].load(std::memory_order_relaxed);
  t.stampNs = gPhaseNs[1].load(std::memory_order_relaxed);
  t.factorNs = gPhaseNs[2].load(std::memory_order_relaxed);
  t.solveNs = gPhaseNs[3].load(std::memory_order_relaxed);
  return t;
}

void resetSimPhaseTotals() {
  for (auto& c : gPhaseNs) c.store(0, std::memory_order_relaxed);
}

void addSimPhaseNs(SimPhase phase, std::uint64_t ns) {
  tPendingNs[static_cast<int>(phase)] += ns;
}

void flushSimPhases() {
  for (int k = 0; k < 4; ++k) {
    if (tPendingNs[k] == 0) continue;
    gPhaseNs[k].fetch_add(tPendingNs[k], std::memory_order_relaxed);
    tPendingNs[k] = 0;
  }
}

std::int64_t simProfileNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace trdse::sim
