// Folded-cascode OTA — a second amplifier topology used to exercise the
// paper's claim that the framework generalizes at the *algorithm
// architecture* level: the identical agent sizes a different schematic with
// different measurement trade-offs (single high-gain stage, no Miller
// compensation, load-capacitor-dominated bandwidth).
//
//   M1/M2  NMOS input pair          M0   NMOS tail (mirrored bias)
//   M3/M4  PMOS folding sources     M5/M6 PMOS cascodes
//   M7/M8  NMOS cascodes            M9/M10 NMOS mirror bottom
//
// Bias rails for the cascode gates come from fixed fractions of the supply,
// as a testbench would provide them.
#pragma once

#include "core/problem.hpp"
#include "sim/netlist.hpp"
#include "sim/process.hpp"

namespace trdse::circuits {

class FoldedCascodeOta {
 public:
  enum Param : std::size_t {
    kW1 = 0,   ///< input pair width [m]
    kW3,       ///< PMOS folding source width [m]
    kW5,       ///< PMOS cascode width [m]
    kW7,       ///< NMOS cascode width [m]
    kW9,       ///< NMOS mirror width [m]
    kL,        ///< shared channel length [m]
    kIbias,    ///< tail reference current [A]
    kParamCount
  };

  explicit FoldedCascodeOta(const sim::ProcessCard& card);

  static const std::vector<std::string>& measurementNames();
  enum Meas : std::size_t { kGainDb = 0, kUgbwHz, kPmDeg, kPowerMw, kMeasCount };

  static core::DesignSpace designSpace(const sim::ProcessCard& card);

  /// A stamped testbench: the netlist a sizing is simulated on, its DC
  /// initial guess, and the handles measurement needs.
  struct Testbench {
  sim::Netlist netlist;
  sim::NodeId out = sim::kGround;
  std::size_t vddSource = 0;
  linalg::Vector initialGuess;
  double vdd = 0.0;
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

  double area(const linalg::Vector& sizes) const;

  core::SizingProblem makeProblem(std::vector<sim::PvtCorner> corners,
                                  std::vector<core::Spec> specs) const;
  std::vector<core::Spec> defaultSpecs() const;

  const sim::ProcessCard& card() const { return card_; }

 private:
  const sim::ProcessCard& card_;
};

}  // namespace trdse::circuits
