#include "circuits/ico.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/netlist.hpp"
#include "sim/op_batch.hpp"
#include "sim/transient.hpp"

namespace trdse::circuits {

namespace {
constexpr int kStages = 3;
constexpr double kPnOffsetHz = 1e6;
/// Excess-noise factor folding in short-channel gamma, flicker corner and
/// buffer noise; calibrated so hand designs land in the paper's -71..-74 dB
/// range at ~8-9 GHz.
constexpr double kExcessNoise = 25.0;

/// Transient schedule of the measurement.
sim::TransientOptions transientOptions() {
  sim::TransientOptions topt;
  topt.tStop = 3.0e-9;
  topt.dt = 0.8e-12;
  return topt;
}
}  // namespace

Ico::Ico(const sim::ProcessCard& card) : card_(card) {}

const std::vector<std::string>& Ico::measurementNames() {
  static const std::vector<std::string> names = {"freq_ghz", "pnoise_dbc",
                                                 "power_mw"};
  return names;
}

core::DesignSpace Ico::designSpace(const sim::ProcessCard& card) {
  const double minL = card.minL;
  (void)minL;
  return core::DesignSpace({
      {"wn", 0.4e-6, 4e-6, 20, true},
      {"wp", 0.6e-6, 8e-6, 20, true},
      {"wst", 0.6e-6, 12e-6, 20, true},
      {"ictrl", 20e-6, 400e-6, 20, true},
  });
}

double Ico::estimatePhaseNoiseDbc(double f0Hz, double powerW, double offsetHz,
                                  double tempK) {
  if (f0Hz <= 0.0 || powerW <= 0.0) return 0.0;
  const double kT = 1.380649e-23 * tempK;
  const double ratio = f0Hz / offsetHz;
  const double l = kExcessNoise * (8.0 / 3.0) * (kT / powerW) * ratio * ratio;
  return 10.0 * std::log10(l);
}

namespace {

using IcoTestbench = Ico::Testbench;

}  // namespace

Ico::Testbench Ico::buildTestbench(const linalg::Vector& sizes,
                                   const sim::PvtCorner& corner) const {
  const sim::ProcessCard& card = card_;
  assert(sizes.size() == Ico::kParamCount);
  const sim::MosParams nmos =
      sim::applyPvt(card.nmos, sim::MosType::kNmos, corner, card.tnomK);
  const sim::MosParams pmos =
      sim::applyPvt(card.pmos, sim::MosType::kPmos, corner, card.tnomK);
  const double minL = card.minL;

  IcoTestbench tb;
  sim::Netlist& nl = tb.netlist;
  nl.tempK = corner.tempK();
  const sim::NodeId vdd = nl.node("vdd");
  const sim::NodeId nbias = nl.node("nbias");
  const sim::NodeId pbias = nl.node("pbias");

  const std::size_t vddSrc = nl.addVSource(vdd, sim::kGround, corner.vdd);
  nl.addISource(vdd, nbias, sizes[Ico::kIctrl]);

  using sim::MosType;
  const sim::MosGeometry gMir{sizes[Ico::kWst], 2.0 * minL, 1.0};
  const sim::MosGeometry gInvN{sizes[Ico::kWn], minL, 1.0};
  const sim::MosGeometry gInvP{sizes[Ico::kWp], minL, 1.0};
  const sim::MosGeometry gStN{sizes[Ico::kWst], minL, 1.0};
  const sim::MosGeometry gStP{2.0 * sizes[Ico::kWst], minL, 1.0};

  // Bias mirrors: Ictrl -> nbias diode; nbias mirror pulls the pbias diode.
  nl.addMosfet("MNB", nbias, nbias, sim::kGround, sim::kGround, MosType::kNmos,
               gMir, nmos);
  nl.addMosfet("MNM", pbias, nbias, sim::kGround, sim::kGround, MosType::kNmos,
               gMir, nmos);
  nl.addMosfet("MPB", pbias, pbias, vdd, vdd, MosType::kPmos, gMir, pmos);

  // Ring stages. Stage i: in = ring[i], out = ring[i+1 mod N].
  tb.ring.resize(kStages);
  std::vector<sim::NodeId>& ring = tb.ring;
  for (int i = 0; i < kStages; ++i) ring[i] = nl.node("r" + std::to_string(i));
  for (int i = 0; i < kStages; ++i) {
    const sim::NodeId in = ring[static_cast<std::size_t>(i)];
    const sim::NodeId out = ring[static_cast<std::size_t>((i + 1) % kStages)];
    const sim::NodeId vtp = nl.node("vtp" + std::to_string(i));
    const sim::NodeId vtn = nl.node("vtn" + std::to_string(i));
    const std::string tag = std::to_string(i);
    nl.addMosfet("MSP" + tag, vtp, pbias, vdd, vdd, MosType::kPmos, gStP, pmos);
    nl.addMosfet("MP" + tag, out, in, vtp, vdd, MosType::kPmos, gInvP, pmos);
    nl.addMosfet("MN" + tag, out, in, vtn, sim::kGround, MosType::kNmos, gInvN,
                 nmos);
    nl.addMosfet("MSN" + tag, vtn, nbias, sim::kGround, sim::kGround,
                 MosType::kNmos, gStN, nmos);
  }

  // DC: find the (metastable) balance point, then kick one ring node.
  linalg::Vector guess(nl.nodeCount(), corner.vdd * 0.5);
  guess[sim::kGround] = 0.0;
  guess[static_cast<std::size_t>(vdd)] = corner.vdd;
  guess[static_cast<std::size_t>(nbias)] = 0.4;
  guess[static_cast<std::size_t>(pbias)] = corner.vdd - 0.4;

  tb.vddSource = vddSrc;
  tb.initialGuess = std::move(guess);
  return tb;
}

namespace {

/// Kick the metastable balance point onto the oscillation trajectory.
linalg::Vector kickedState(const IcoTestbench& tb, const sim::DcResult& op) {
  linalg::Vector ic = op.v;
  ic[static_cast<std::size_t>(tb.ring[0])] += 0.08;
  ic[static_cast<std::size_t>(tb.ring[1])] -= 0.05;
  return ic;
}

/// Extract {freq, pnoise, power} from a completed transient.
core::EvalResult measureFromTransient(const IcoTestbench& tb,
                                      const sim::TransientResult& tr,
                                      const sim::PvtCorner& corner) {
  if (!tr.completed) return {};

  const sim::Waveform w = tr.waveform(tb.ring[2]);
  const double f0 = sim::estimateFrequency(w, corner.vdd * 0.5, 4);
  if (f0 <= 0.0) return {};  // did not oscillate
  // Require sustained swing (not a decaying ringback).
  if (sim::steadyStateAmplitude(w, 0.3) < 0.3 * corner.vdd) return {};

  const double idd = tr.meanVsourceCurrent(tb.vddSource, 0.5);
  const double power = idd * corner.vdd;

  core::EvalResult r;
  r.ok = true;
  r.measurements.assign(Ico::kMeasCount, 0.0);
  r.measurements[Ico::kFreqGhz] = f0 / 1e9;
  r.measurements[Ico::kPnoiseDbc] =
      Ico::estimatePhaseNoiseDbc(f0, power, kPnOffsetHz, corner.tempK());
  r.measurements[Ico::kPowerMw] = power * 1e3;
  return r;
}

}  // namespace

core::EvalResult Ico::evaluate(const linalg::Vector& sizes,
                               const sim::PvtCorner& corner) const {
  const linalg::Vector* slot = &sizes;
  core::EvalResult r;
  evaluateBatch(&slot, &corner, &r, 1);
  return r;
}

void Ico::evaluateBatch(const linalg::Vector* const* sizes,
                        const sim::PvtCorner* corners,
                        core::EvalResult* results, std::size_t count) const {
  for (std::size_t off = 0; off < count; off += sim::kSimLanes) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(sim::kSimLanes, count - off));
    std::array<IcoTestbench, sim::kSimLanes> tbs;
    std::array<const sim::Netlist*, sim::kSimLanes> nls{};
    std::array<const linalg::Vector*, sim::kSimLanes> guesses{};
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      tbs[li] = buildTestbench(*sizes[off + li], corners[off + li]);
      nls[li] = &tbs[li].netlist;
      guesses[li] = &tbs[li].initialGuess;
    }
    const auto ops = sim::solveDcBatch(nls, guesses);

    std::array<linalg::Vector, sim::kSimLanes> ics;
    std::array<const sim::Netlist*, sim::kSimLanes> trNls{};
    std::array<const linalg::Vector*, sim::kSimLanes> initial{};
    bool anyTr = false;
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (!ops[li].converged) continue;
      ics[li] = kickedState(tbs[li], ops[li]);
      trNls[li] = nls[li];
      initial[li] = &ics[li];
      anyTr = true;
    }

    if (anyTr) {
      sim::TransientBatch batch(trNls, transientOptions(), initial);
      batch.run();
      for (int l = 0; l < lanes; ++l) {
        const auto li = static_cast<std::size_t>(l);
        results[off + li] =
            trNls[li] ? measureFromTransient(tbs[li], batch.takeResult(l),
                                             corners[off + li])
                      : core::EvalResult{};
      }
    } else {
      for (int l = 0; l < lanes; ++l)
        results[off + static_cast<std::size_t>(l)] = core::EvalResult{};
    }
  }
}

double Ico::area(const linalg::Vector& sizes) const {
  assert(sizes.size() == kParamCount);
  const double minL = card_.minL;
  double a = 0.0;
  a += 3.0 * sizes[kWst] * 2.0 * minL;                       // mirrors
  a += kStages * (sizes[kWn] + sizes[kWp]) * minL;           // inverters
  a += kStages * (sizes[kWst] + 2.0 * sizes[kWst]) * minL;   // starving
  return a * 1e12;  // µm^2
}

std::vector<core::Spec> Ico::defaultSpecs() const {
  using core::SpecKind;
  // The paper's Table V lists phase noise and frequency; the implicit power
  // budget every oscillator has is made explicit here, because phase noise
  // improves monotonically with power in the Leeson estimator (without the
  // budget the "best" design is simply the hottest one).
  return {{"pnoise_dbc", SpecKind::kAtMost, -71.0},
          {"freq_ghz", SpecKind::kAtLeast, 8.0},
          {"power_mw", SpecKind::kAtMost, 0.40}};
}

core::SizingProblem Ico::makeProblem(std::vector<sim::PvtCorner> corners,
                                     std::vector<core::Spec> specs) const {
  core::SizingProblem p;
  p.name = "ico_" + card_.name;
  p.space = designSpace(card_);
  p.measurementNames = measurementNames();
  p.specs = std::move(specs);
  p.corners = std::move(corners);
  const Ico self = *this;
  p.evaluate = [self](const linalg::Vector& sizes, const sim::PvtCorner& c) {
    return self.evaluate(sizes, c);
  };
  p.evaluateBatch = [self](const linalg::Vector* const* sizes,
                           const sim::PvtCorner* corners,
                           core::EvalResult* results, std::size_t count) {
    self.evaluateBatch(sizes, corners, results, count);
  };
  p.area = [self](const linalg::Vector& sizes) { return self.area(sizes); };
  return p;
}

linalg::Vector Ico::humanReferenceSizing() {
  // Meets spec with margin: ~9.1 GHz, ~-72.2 dBc/Hz, ~0.38 mW on n5/TT.
  linalg::Vector s(kParamCount);
  s[kWn] = 2.0e-6;
  s[kWp] = 4.0e-6;
  s[kWst] = 6.0e-6;
  s[kIctrl] = 110e-6;
  return s;
}

}  // namespace trdse::circuits
