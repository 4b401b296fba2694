// DC operating-point options and result. The solver is solveDcBatch
// (sim/op_batch.hpp): Newton-Raphson over the MNA system with per-node step
// damping, falling back to gmin stepping and then source stepping when the
// plain iteration fails — the standard SPICE ladder. A one-point solve is a
// batch with one active lane.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "sim/netlist.hpp"

namespace trdse::sim {

struct DcOptions {
  int maxIterations = 200;
  double tolAbs = 1e-9;     ///< absolute node-voltage convergence [V]
  double tolRel = 1e-9;     ///< relative part of the convergence test
  double gmin = 1e-12;      ///< conductance from every node to ground [S]
  double damping = 0.5;     ///< max node-voltage step per Newton iteration [V]
};

struct DcResult {
  bool converged = false;
  int iterations = 0;
  linalg::Vector v;               ///< node voltages incl. ground at index 0
  linalg::Vector branchCurrents;  ///< vsources, vcvs, inductors (netlist order)
  std::vector<MosOp> mosOps;      ///< per-MOSFET operating point (netlist order)
  linalg::Vector diodeConductances;  ///< per-diode gd at the OP

  double nodeVoltage(NodeId n) const { return v[static_cast<std::size_t>(n)]; }
  /// Current through the idx-th voltage source (positive p -> n).
  double vsourceCurrent(std::size_t idx) const { return branchCurrents[idx]; }
};

}  // namespace trdse::sim
