// Low-dropout regulator on the synthetic "n6" advanced-node card — the stand-
// in for the paper's first industrial case (Table IV: TSMC 6nm LDO, design
// space ~1e29, specs loop gain > 40 dB and area < 650 area units).
//
// Structure: five-transistor error amplifier (NMOS pair, PMOS mirror, tail),
// PMOS pass device, resistive feedback divider, fixed load current + output
// capacitor. Loop gain is measured exactly with a series voltage-injection
// source at the error-amplifier feedback input (zero DC offset, so the
// closed-loop operating point is undisturbed; the pass-gate input draws no
// current, so T(s) = v_return / v_forward holds without loading correction).
#pragma once

#include "core/problem.hpp"
#include "sim/netlist.hpp"
#include "sim/process.hpp"

namespace trdse::circuits {

class Ldo {
 public:
  enum Param : std::size_t {
    kW1 = 0,   ///< EA diff pair width [m]
    kW3,       ///< EA mirror width [m]
    kW5,       ///< EA tail width [m]
    kL1,       ///< EA pair length [m]
    kL3,       ///< EA mirror length [m]
    kL5,       ///< EA tail/bias length [m]
    kWp,       ///< pass PMOS width [m]
    kLp,       ///< pass PMOS length [m]
    kR1,       ///< divider top [ohm]
    kR2,       ///< divider bottom [ohm]
    kCc,       ///< compensation cap at EA output [F]
    kIbias,    ///< EA bias current [A]
    kParamCount
  };

  explicit Ldo(const sim::ProcessCard& card);

  static const std::vector<std::string>& measurementNames();
  enum Meas : std::size_t {
    kLoopGainDb = 0,
    kLoopPmDeg,
    kVoutErrMv,  ///< |vout - target| [mV]
    kAreaAu,     ///< layout area in the paper's area units
    kIqUa,       ///< quiescent current (excl. load) [µA]
    kMeasCount
  };

  /// 12 variables x 256 grid steps each ~= 10^29 combinations (Table IV).
  static core::DesignSpace designSpace(const sim::ProcessCard& card);

  /// A stamped testbench: the netlist a sizing is simulated on, its DC
  /// initial guess, and the handles measurement needs.
  struct Testbench {
  sim::Netlist netlist;
  sim::NodeId tap = sim::kGround;
  sim::NodeId fbin = sim::kGround;
  sim::NodeId vout = sim::kGround;
  std::size_t vddSource = 0;
  linalg::Vector initialGuess;
  double vtarget = 0.0;
  };

  /// Build the testbench for a sizing under a corner; exposed so analyses
  /// can inspect the simulated circuit itself.
  Testbench buildTestbench(const linalg::Vector& sizes,
                           const sim::PvtCorner& corner) const;

  /// One sizing under one corner: a one-lane evaluateBatch.
  core::EvalResult evaluate(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner) const;

  /// Corner-batch evaluation through the lane DC/AC engines
  /// (sim/op_batch.hpp), in chunks of sim::kSimLanes; results[i] depends on
  /// (*sizes[i], corners[i]) alone, so slots may mix sizings.
  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners, core::EvalResult* results,
                     std::size_t count) const;

  /// Area in the paper's reporting unit (calibrated so the human reference
  /// design sits at ~650).
  double area(const linalg::Vector& sizes) const;

  core::SizingProblem makeProblem(std::vector<sim::PvtCorner> corners,
                                  std::vector<core::Spec> specs) const;
  std::vector<core::Spec> defaultSpecs() const;

  /// Hand-derived reference sizing — the "Human" row of Table IV.
  static linalg::Vector humanReferenceSizing();

  const sim::ProcessCard& card() const { return card_; }

 private:
  const sim::ProcessCard& card_;
};

}  // namespace trdse::circuits
