// Current-controlled oscillator on the synthetic "n5" card — the stand-in
// for the paper's second industrial case (Table V: TSMC 5nm ICO, design
// space 20^4, specs phase noise < -71 dBc/Hz and frequency > 8 GHz).
//
// Topology: three-stage current-starved ring oscillator. The control current
// is mirrored into every stage's top/bottom starving devices; oscillation
// frequency is measured from rising-edge crossings of a transient run kicked
// off the metastable DC point. Phase noise is estimated with a calibrated
// thermal-noise (Leeson/Razavi-style) formula from the measured frequency
// and supply power — the documented substitution for a noise analysis the
// paper ran in Spectre (see DESIGN.md).
#pragma once

#include "core/problem.hpp"
#include "sim/netlist.hpp"
#include "sim/process.hpp"

namespace trdse::circuits {

class Ico {
 public:
  enum Param : std::size_t {
    kWn = 0,   ///< inverter NMOS width [m]
    kWp,       ///< inverter PMOS width [m]
    kWst,      ///< starving device width (PMOS side doubled) [m]
    kIctrl,    ///< control current [A]
    kParamCount
  };

  explicit Ico(const sim::ProcessCard& card);

  static const std::vector<std::string>& measurementNames();
  enum Meas : std::size_t { kFreqGhz = 0, kPnoiseDbc, kPowerMw, kMeasCount };

  /// 4 variables x 20 grid steps = 20^4 combinations (Table V).
  static core::DesignSpace designSpace(const sim::ProcessCard& card);

  /// A stamped testbench: the netlist a sizing is simulated on, its DC
  /// initial guess, and the handles measurement needs.
  struct Testbench {
  sim::Netlist netlist;
  std::vector<sim::NodeId> ring;
  std::size_t vddSource = 0;
  linalg::Vector initialGuess;
  };

  /// Build the testbench for a sizing under a corner; exposed so analyses
  /// can inspect the simulated circuit itself.
  Testbench buildTestbench(const linalg::Vector& sizes,
                           const sim::PvtCorner& corner) const;

  /// One sizing under one corner: a one-lane evaluateBatch.
  core::EvalResult evaluate(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner) const;

  /// Batch evaluation through the lane DC/transient engines
  /// (sim/op_batch.hpp), in chunks of sim::kSimLanes; results[i] depends on
  /// (*sizes[i], corners[i]) alone, so slots may mix sizings.
  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners, core::EvalResult* results,
                     std::size_t count) const;

  double area(const linalg::Vector& sizes) const;

  core::SizingProblem makeProblem(std::vector<sim::PvtCorner> corners,
                                  std::vector<core::Spec> specs) const;
  std::vector<core::Spec> defaultSpecs() const;

  /// Hand-derived reference sizing — the "Human" row of Table V.
  static linalg::Vector humanReferenceSizing();

  /// Phase-noise estimator at `offsetHz` from carrier `f0` for a ring
  /// oscillator burning `powerW` (exposed for tests/calibration).
  static double estimatePhaseNoiseDbc(double f0Hz, double powerW,
                                      double offsetHz, double tempK);

  const sim::ProcessCard& card() const { return card_; }

 private:
  const sim::ProcessCard& card_;
};

}  // namespace trdse::circuits
