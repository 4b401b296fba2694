// The operating-point engines: DC, transient, and AC solvers that drive up to
// kSimLanes (sizing, corner) operating points through one Newton/LU pipeline.
// They are the only DC and transient solvers; a one-point analysis is a batch
// with one active lane and null lanes elsewhere.
//
// The contract every engine here honors is *lane independence*: lane l's
// result is a function of lane l's netlist (and guess / initial state) alone,
// bit for bit — the same netlist alone in a one-lane batch, or next to any
// other lanes, or with any lanes left null, yields identical bits. Three
// mechanisms make that hold:
//   1. Device cards are evaluated through the shared block kernels
//      (evalMosBlock / evalDiodeBlock), whose lanes are bitwise identical to
//      the scalar device calls by construction (see sim/mosfet.hpp).
//   2. Stamps, Newton updates, and convergence tests are evaluated per lane in
//      a fixed stamp order; the involved translation units are compiled with
//      FP contraction off so the same source expression cannot fuse
//      differently.
//   3. The lane-blocked LU factors each lane with its own pivoting (per-lane
//      pivot scan and row swaps) while vectorizing the elimination across
//      lanes — no arithmetic mixes lanes.
//
// Lanes that freeze early (converged / failed) are therefore safe, and
// tests/sim_batch_test.cpp pins the actual values with committed goldens (bit
// hashes of the DC operating points and transient traces), checks lane
// independence over every subset of active lanes, and checks the physics
// against closed forms (KCL at every converged operating point, trapezoidal
// error order, DC-consistent AC gain).
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <memory>

#include "linalg/matrix.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/mosfet.hpp"
#include "sim/netlist.hpp"
#include "sim/transient.hpp"

namespace trdse::sim {

/// Whether two netlists can share one batch: identical MNA structure (node
/// count and every device's connectivity, in the same order). Element values,
/// device parameters, and temperature may differ — that is what the lanes are
/// for.
bool sameTopology(const Netlist& a, const Netlist& b);

/// DC operating point over up to kSimLanes netlists of one topology. Null
/// lanes are skipped (their result stays default-constructed). A null or
/// wrongly-sized guess starts that lane from all-zero node voltages.
/// Each lane runs the full convergence ladder (plain Newton, gmin stepping,
/// source stepping) as an independent state machine; lanes at different
/// ladder stages still share each lockstep iteration's block device
/// evaluation and lane-blocked LU.
std::array<DcResult, kSimLanes> solveDcBatch(
    const std::array<const Netlist*, kSimLanes>& nls,
    const std::array<const linalg::Vector*, kSimLanes>& guesses,
    const DcOptions& opts = {});

/// Trapezoidal transient with an incremental stepping API. Lanes run in
/// lockstep (same dt, same step count); within a time step each lane's
/// Newton iteration freezes independently on its own convergence test.
/// Companion currents start at zero, so a run started away from equilibrium
/// takes its first step as backward Euler over dt/2.
///
/// step(k) followed by step(n - k) is state-identical to step(n) — the
/// companion states, voltages, and recorded traces carry over exactly — which
/// is what lets a consumer interleave lanes with other work. A lane whose
/// Newton fails (or whose matrix goes singular) stops recording at that step
/// with completed == false.
class TransientBatch {
 public:
  /// `nls[l] == nullptr` disables lane l. Active lanes must share topology
  /// and each needs an initial node-voltage vector of size nodeCount().
  TransientBatch(const std::array<const Netlist*, kSimLanes>& nls,
                 const TransientOptions& opts,
                 const std::array<const linalg::Vector*, kSimLanes>& initial);
  ~TransientBatch();
  TransientBatch(const TransientBatch&) = delete;
  TransientBatch& operator=(const TransientBatch&) = delete;

  /// Total accepted steps a full run performs (tStop / dt).
  std::size_t totalSteps() const;
  /// Steps advanced so far (for live lanes; dead lanes stopped earlier).
  std::size_t stepsDone() const;
  /// Advance up to `n` further lockstep time steps.
  void step(std::size_t n);
  /// Run to completion.
  void run();
  /// Lane result so far; completed == true only after a full run.
  const TransientResult& result(int lane) const;
  /// Move a lane's result out (the lane must not be stepped afterwards).
  TransientResult takeResult(int lane);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Small-signal AC over up to kSimLanes operating points. Builds the
/// per-lane G/C/b stamps through the scalar AcSolver and solves every
/// frequency point with a lane-blocked complex LU over split re/im planes and
/// persistent workspaces — no per-frequency allocation.
///
/// The complex arithmetic is the naive schoolbook formula, which is what
/// std::complex performs unless an intermediate turns NaN (the Annex-G
/// recovery path). solveAt() therefore reports per-lane finiteness; a lane
/// flagged non-finite must be redone through the scalar AcSolver — whose
/// recovered values are then the result (see laneFinite()).
class AcBatch {
 public:
  /// `ops[l] == nullptr` disables lane l; active lanes need a converged
  /// DcResult for their netlist, exactly like the scalar AcSolver.
  AcBatch(const std::array<const Netlist*, kSimLanes>& nls,
          const std::array<const DcResult*, kSimLanes>& ops);
  ~AcBatch();
  AcBatch(const AcBatch&) = delete;
  AcBatch& operator=(const AcBatch&) = delete;

  /// Solve (G + jωC) x = b on every active lane at one frequency. A lane
  /// whose factorization is numerically singular yields a zero solution
  /// vector, matching AcSolver::solveAt.
  void solveAt(double freqHz);

  /// Complex node voltage of the latest solveAt() solution.
  std::complex<double> nodeVoltage(int lane, NodeId n) const;

  /// Whether every solveAt() so far kept lane `lane` finite. When false the
  /// batched lane may have diverged from std::complex's NaN-recovery
  /// semantics: recompute that lane with the scalar AcSolver.
  bool laneFinite(int lane) const;

  /// The per-lane scalar solver the stamps were built with (null for
  /// inactive lanes) — the redo path for non-finite lanes.
  const AcSolver* laneSolver(int lane) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trdse::sim
