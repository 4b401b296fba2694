// The `sim` layer probe: a timing decorator around SizingProblem::evaluate /
// evaluateBatch, installed per job through JobSpec::makeProblem.
//
// The decorator keeps `evaluateBatch` whenever the wrapped problem has one,
// so the engine's batch width (CallbackBackend::batchWidth) and dispatch path
// are exactly those of the undecorated problem; it only counts and times.
//
// Counters and call spans live in one MAP_SHARED anonymous mapping made
// before any fork, so calls made in DistributedScheduler worker processes
// (which inherit the decorated problems copy-on-write) land in the same
// counters the harness reads after the workers are reaped.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/problem.hpp"

namespace e2e {

/// One decorated simulator call, as recorded in the shared span arena.
struct SimCallRecord {
  std::int64_t startNs = 0;  ///< steady-clock (CLOCK_MONOTONIC) start
  std::int64_t endNs = 0;
  std::uint64_t parent = 0;  ///< harness span id of the enclosing round
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint32_t job = 0;     ///< job index the decorated problem belongs to
  std::uint32_t points = 0;  ///< operating points simulated by the call
  bool batch = false;        ///< evaluateBatch (true) or evaluate (false)
};

/// Counter totals of a probe (see SimProbe::snapshot).
struct SimCounters {
  std::uint64_t scalarCalls = 0;
  std::uint64_t batchCalls = 0;
  std::uint64_t scalarPoints = 0;
  std::uint64_t batchPoints = 0;
  std::uint64_t busyNs = 0;  ///< wall time summed over calls
  /// sim::SimPhase totals (device eval, stamp, factor, solve) in ns: the
  /// owning process's global counters plus deltas shipped from other
  /// processes through the shared page.
  std::uint64_t phaseNs[4] = {0, 0, 0, 0};
  std::uint64_t spansDropped = 0;

  std::uint64_t points() const { return scalarPoints + batchPoints; }
  /// Average points per evaluateBatch call over the lane width (0 when no
  /// batch call was made).
  double laneFill(std::size_t lanes) const;
  /// Share of simulated points that went through evaluateBatch.
  double batchedShare() const;
};

/// Process-shared counters + span arena. Create before forking; not copyable
/// (the decorated problems hold its address).
class SimProbe {
 public:
  /// `spanCapacity` call spans are kept; later calls only count.
  explicit SimProbe(std::size_t spanCapacity);
  ~SimProbe();
  SimProbe(const SimProbe&) = delete;
  SimProbe& operator=(const SimProbe&) = delete;

  /// `problem` with evaluate/evaluateBatch wrapped; calls are attributed to
  /// `job`. The probe must outlive every copy of the returned problem.
  trdse::core::SizingProblem decorate(trdse::core::SizingProblem problem,
                                      std::uint32_t job) const;

  /// Zero every counter and the span arena, and the process's sim phase
  /// totals. Call only while no decorated call is in flight.
  void reset();
  /// Span id new call records name as their parent.
  void setParentSpan(std::uint64_t id);

  SimCounters snapshot() const;
  /// Recorded calls, in recording order (call after in-flight calls ended).
  std::vector<SimCallRecord> calls() const;

 private:
  struct Shared;
  void record(std::int64_t startNs, std::uint32_t job, std::uint32_t points,
              bool batch, const std::uint64_t* phaseBefore) const;

  Shared* shared_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t capacity_ = 0;
  int ownerPid_ = 0;
};

}  // namespace e2e
