// Lane-engine harness (sim/op_batch.hpp): committed goldens, lane
// independence, physics oracles, and the EvalEngine's chunked dispatch.
//
// Every numeric comparison between two runs is on the *bit pattern* of the
// doubles, not an epsilon: lane l of any batch must reproduce the same
// netlist alone in a one-lane batch exactly (see the op_batch.hpp header for
// how the kernels and compile flags guarantee it). An epsilon test would
// quietly accept the contraction/vectorization drift these tests exist to
// catch. The goldens are FNV-1a hashes of those bit patterns, recorded from
// the one-point DC and transient solvers this engine replaced.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <atomic>
#include <memory>

#include "circuits/folded_cascode.hpp"
#include "circuits/ico.hpp"
#include "circuits/ldo.hpp"
#include "circuits/registry.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "eval/circuit_backend.hpp"
#include "eval/eval_engine.hpp"
#include "pvt/corners.hpp"
#include "sim/ac.hpp"
#include "sim/assembly_plan.hpp"
#include "sim/dc.hpp"
#include "sim/diode.hpp"
#include "sim/mosfet.hpp"
#include "sim/op_batch.hpp"
#include "sim/process.hpp"
#include "sim/transient.hpp"

namespace trdse::sim {
namespace {

/// Bit-pattern equality: distinguishes -0.0 from 0.0 and catches 1-ulp
/// drift, which is exactly the failure mode of a divergent FP contraction.
testing::AssertionResult bitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << std::scientific << a << " vs " << b << " (bit patterns differ)";
}

#define EXPECT_BITS_EQ(a, b) EXPECT_TRUE(bitsEqual((a), (b)))
#define ASSERT_BITS_EQ(a, b) ASSERT_TRUE(bitsEqual((a), (b)))

/// Kitchen-sink netlist exercising every device type the MNA stamps know:
/// vsource (w/ AC), resistor, diode, NMOS, PMOS, capacitor, inductor, VCCS,
/// VCVS, isource (w/ AC). Lanes differ in corner *and* sizing.
Netlist buildSink(const PvtCorner& c, double wScale) {
  const ProcessCard& card = bsim45Card();
  const MosParams nmos = applyPvt(card.nmos, MosType::kNmos, c, card.tnomK);
  const MosParams pmos = applyPvt(card.pmos, MosType::kPmos, c, card.tnomK);
  Netlist nl;
  nl.tempK = c.tempK();
  const NodeId vdd = nl.node("vdd");
  const NodeId n1 = nl.node("n1");
  const NodeId n2 = nl.node("n2");
  const NodeId n3 = nl.node("n3");
  const NodeId n4 = nl.node("n4");
  const NodeId n5 = nl.node("n5");
  nl.addVSource(vdd, kGround, c.vdd, 1.0);
  nl.addResistor(vdd, n1, 10e3);
  nl.addDiode(n1, kGround);
  nl.addResistor(vdd, n2, 5e3);
  const MosGeometry gn{1e-6 * wScale, card.minL, 1.0};
  const MosGeometry gp{2e-6 * wScale, card.minL, 1.0};
  nl.addMosfet("M1", n2, n1, kGround, kGround, MosType::kNmos, gn, nmos);
  nl.addMosfet("M2", n3, n2, vdd, vdd, MosType::kPmos, gp, pmos);
  nl.addResistor(n3, kGround, 20e3);
  nl.addCapacitor(n2, kGround, 1e-12);
  nl.addCapacitor(n3, n2, 0.1e-12);
  nl.addInductor(n4, n3, 1e-9);
  nl.addResistor(n4, kGround, 1e3);
  nl.addVccs(n3, kGround, n1, kGround, 1e-4);
  nl.addVcvs(n5, kGround, n2, kGround, 2.0);
  nl.addResistor(n5, kGround, 10e3);
  nl.addISource(vdd, n1, 10e-6, 1e-6);
  return nl;
}

const std::array<PvtCorner, kSimLanes> kCorners = {{
    {ProcessCorner::kTT, 1.1, 27.0},
    {ProcessCorner::kFF, 1.21, -40.0},
    {ProcessCorner::kSS, 0.99, 125.0},
    {ProcessCorner::kSF, 1.1, 85.0},
}};
const std::array<double, kSimLanes> kWScales = {1.0, 1.7, 0.6, 2.3};

struct SinkLanes {
  std::array<Netlist, kSimLanes> nls;
  std::array<linalg::Vector, kSimLanes> guesses;
  std::array<const Netlist*, kSimLanes> nlp{};
  std::array<const linalg::Vector*, kSimLanes> gp{};
  SinkLanes() {
    for (int l = 0; l < static_cast<int>(kSimLanes); ++l) {
      const auto li = static_cast<std::size_t>(l);
      nls[li] = buildSink(kCorners[li], kWScales[li]);
      guesses[li].assign(nls[li].nodeCount(), 0.0);
      nlp[li] = &nls[li];
      gp[li] = &guesses[li];
    }
  }
};

/// FNV-1a over the bit patterns of a result: equal hashes <=> equal bits
/// (up to a 2^-64 collision), so one constant pins a whole trace.
struct BitHash {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  }
  void f64(double x) {
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    u64(b);
  }
  void vec(const linalg::Vector& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
};

std::uint64_t hashDc(const DcResult& r) {
  BitHash h;
  h.u64(r.converged);
  h.u64(static_cast<std::uint64_t>(r.iterations));
  h.vec(r.v);
  h.vec(r.branchCurrents);
  h.u64(r.mosOps.size());
  for (const MosOp& op : r.mosOps) {
    for (const double x : {op.ids, op.dIdVd, op.dIdVg, op.dIdVs, op.dIdVb,
                           op.gm, op.gds})
      h.f64(x);
  }
  h.vec(r.diodeConductances);
  return h.h;
}

std::uint64_t hashTransient(const TransientResult& r) {
  BitHash h;
  h.u64(r.completed);
  h.u64(r.times.size());
  for (const double t : r.times) h.f64(t);
  h.u64(r.voltages.size());
  for (const auto& v : r.voltages) h.vec(v);
  h.u64(r.branchCurrents.size());
  for (const auto& v : r.branchCurrents) h.vec(v);
  return h.h;
}

// Goldens of the kitchen-sink lanes (SinkLanes, all-zero guesses): the DC
// operating points and the 201-point transient traces below (tStop = 200 ps,
// dt = 1 ps, started from each lane's operating point), as produced by the
// one-point Newton and trapezoidal solvers before the lane engine became the
// only engine. A mismatch means the simulator's arithmetic changed.
constexpr std::array<std::uint64_t, kSimLanes> kDcGolden = {
    0xbeb84d494ce97e35ull, 0x7fcc1669effda92full, 0x889594909b38db51ull,
    0x64d2768652d85766ull};
constexpr std::array<int, kSimLanes> kDcGoldenIterations = {11, 18, 7, 9};
constexpr std::array<std::uint64_t, kSimLanes> kTransientGolden = {
    0xac91311d2bee9ad9ull, 0x730473e918b2873full, 0x02d878978c7aa8d9ull,
    0xb8688a38b11f455cull};

TransientOptions sinkTransientOptions() {
  TransientOptions topt;
  topt.tStop = 2e-10;
  topt.dt = 1e-12;
  return topt;
}

/// Lane `l` of the sink set alone, in a one-lane batch.
DcResult soloDc(const SinkLanes& lanes, std::size_t l) {
  return solveDcBatch({lanes.nlp[l]}, {lanes.gp[l]})[0];
}

// ---- DC ------------------------------------------------------------------

TEST(SimBatchDc, EveryLaneMatchesItsOneLaneSolveAndTheGolden) {
  const SinkLanes lanes;
  const auto batch = solveDcBatch(lanes.nlp, lanes.gp);
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const DcResult solo = soloDc(lanes, l);
    const DcResult& b = batch[l];
    ASSERT_TRUE(b.converged) << "lane " << l;
    EXPECT_EQ(b.iterations, kDcGoldenIterations[l]) << "lane " << l;
    EXPECT_EQ(hashDc(b), kDcGolden[l]) << "lane " << l;
    EXPECT_EQ(hashDc(solo), hashDc(b)) << "lane " << l;
    ASSERT_EQ(solo.v.size(), b.v.size());
    for (std::size_t i = 0; i < solo.v.size(); ++i)
      ASSERT_BITS_EQ(solo.v[i], b.v[i]);
  }
}

TEST(SimBatchDc, NullLanesAreSkippedAndSurvivorsUnchanged) {
  const SinkLanes lanes;
  const auto full = solveDcBatch(lanes.nlp, lanes.gp);
  // Every strict subset of active lanes must reproduce the full batch's
  // lanes bitwise: lane blocking may not couple lanes numerically.
  for (std::size_t keep = 1; keep < (1u << kSimLanes) - 1; ++keep) {
    std::array<const Netlist*, kSimLanes> nlp{};
    std::array<const linalg::Vector*, kSimLanes> gp{};
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      nlp[l] = lanes.nlp[l];
      gp[l] = lanes.gp[l];
    }
    const auto part = solveDcBatch(nlp, gp);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      ASSERT_EQ(part[l].converged, full[l].converged);
      for (std::size_t i = 0; i < full[l].v.size(); ++i)
        ASSERT_BITS_EQ(part[l].v[i], full[l].v[i]);
    }
  }
}

// ---- Transient -----------------------------------------------------------

TEST(SimBatchTransient, TracesMatchOneLaneRunsAndTheGolden) {
  const SinkLanes lanes;
  const auto ops = solveDcBatch(lanes.nlp, lanes.gp);
  const TransientOptions topt = sinkTransientOptions();
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) init[l] = &ops[l].v;

  TransientBatch batch(lanes.nlp, topt, init);
  batch.run();
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    TransientBatch solo({lanes.nlp[l]}, topt, {init[l]});
    solo.run();
    const TransientResult& b = batch.result(static_cast<int>(l));
    ASSERT_TRUE(b.completed) << "lane " << l;
    ASSERT_EQ(b.times.size(), 201u) << "lane " << l;
    EXPECT_EQ(hashTransient(b), kTransientGolden[l]) << "lane " << l;
    EXPECT_EQ(hashTransient(solo.result(0)), hashTransient(b)) << "lane " << l;
  }

  // Null lanes leave the survivors unchanged: every strict subset of active
  // lanes reproduces the full batch's traces bit for bit.
  for (std::size_t keep = 1; keep < (1u << kSimLanes) - 1; ++keep) {
    std::array<const Netlist*, kSimLanes> nlp{};
    std::array<const linalg::Vector*, kSimLanes> part{};
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      nlp[l] = lanes.nlp[l];
      part[l] = init[l];
    }
    TransientBatch sub(nlp, topt, part);
    sub.run();
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      ASSERT_EQ(hashTransient(sub.result(static_cast<int>(l))),
                kTransientGolden[l])
          << "lane " << l << " of subset " << keep;
    }
  }
}

TEST(SimBatchTransient, SlicedSteppingEqualsSingleRun) {
  const SinkLanes lanes;
  const auto ops = solveDcBatch(lanes.nlp, lanes.gp);
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) init[l] = &ops[l].v;
  const TransientOptions topt = sinkTransientOptions();

  TransientBatch whole(lanes.nlp, topt, init);
  whole.run();
  for (std::size_t l = 0; l < kSimLanes; ++l)
    ASSERT_EQ(hashTransient(whole.result(static_cast<int>(l))),
              kTransientGolden[l])
        << "lane " << l;

  // step(k); step(n-k) must land on the identical trajectory for any cut —
  // the scheduler may suspend/resume a batch anywhere.
  std::mt19937_64 rng(20210605);  // seeded: failures must reproduce
  for (int trial = 0; trial < 3; ++trial) {
    TransientBatch sliced(lanes.nlp, topt, init);
    std::size_t remaining = sliced.totalSteps();
    while (remaining > 0) {
      std::uniform_int_distribution<std::size_t> cut(1, remaining);
      const std::size_t k = cut(rng);
      sliced.step(k);
      remaining -= k;
    }
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const TransientResult& a = whole.result(static_cast<int>(l));
      const TransientResult& b = sliced.result(static_cast<int>(l));
      ASSERT_EQ(hashTransient(a), hashTransient(b)) << "lane " << l;
    }
  }
}

// ---- AC ------------------------------------------------------------------

TEST(SimBatchAc, SweepBitwiseMatchesScalarSolver) {
  const SinkLanes lanes;
  const auto dcs = solveDcBatch(lanes.nlp, lanes.gp);
  std::array<const DcResult*, kSimLanes> ops{};
  for (std::size_t l = 0; l < kSimLanes; ++l) ops[l] = &dcs[l];
  AcBatch ac(lanes.nlp, ops);
  const auto freqs = AcSolver::logSpace(10.0, 20e9, 60);
  for (const double f : freqs) {
    ac.solveAt(f);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      ASSERT_TRUE(ac.laneFinite(static_cast<int>(l)));
      const AcSolver scalar(lanes.nls[l], dcs[l]);
      const linalg::ComplexVector xs = scalar.solveAt(f);
      for (std::size_t node = 1; node < lanes.nls[l].nodeCount(); ++node) {
        const auto sv = scalar.nodeVoltage(xs, static_cast<NodeId>(node));
        const auto bv =
            ac.nodeVoltage(static_cast<int>(l), static_cast<NodeId>(node));
        ASSERT_BITS_EQ(sv.real(), bv.real());
        ASSERT_BITS_EQ(sv.imag(), bv.imag());
      }
    }
  }
}

// ---- Device-model property tests ----------------------------------------

/// Seeded geometry/bias sampler shared by the MOSFET property tests.
struct MosSample {
  MosGeometry geom;
  double vd, vs, vb, tempK;
};

std::vector<MosSample> mosSamples(std::mt19937_64& rng, int n) {
  std::uniform_real_distribution<double> w(0.4e-6, 40e-6);
  std::uniform_real_distribution<double> len(45e-9, 500e-9);
  std::uniform_real_distribution<double> vds(0.05, 1.2);
  std::uniform_real_distribution<double> vbs(-0.3, 0.0);
  std::uniform_real_distribution<double> temp(233.15, 398.15);
  std::vector<MosSample> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.push_back({{w(rng), len(rng), 1.0}, vds(rng), 0.0, vbs(rng), temp(rng)});
  return out;
}

TEST(MosfetProperty, IdsIsContinuousAcrossRegionTransitions) {
  // The EKV-style interpolation has no hard region boundary, but the
  // implementation blends several expressions; walk Vgs through the whole
  // sub-/near-/super-threshold range with a fine step and require the
  // response to be locally Lipschitz against its own reported gm. A hidden
  // branch with mismatched expressions would show up as a jump.
  std::mt19937_64 rng(987654321);
  const ProcessCard& card = bsim45Card();
  for (const MosSample& s : mosSamples(rng, 8)) {
    const MosDeviceCtx ctx =
        makeMosCtx(card.nmos, MosType::kNmos, s.geom, s.tempK);
    const double dv = 1e-4;
    MosOp prev = evalMosCtx(ctx, s.vd, 0.0, s.vs, s.vb);
    for (double vg = dv; vg <= 1.3; vg += dv) {
      const MosOp cur = evalMosCtx(ctx, s.vd, vg, s.vs, s.vb);
      const double slopeBound =
          3.0 * std::max(std::abs(prev.dIdVg), std::abs(cur.dIdVg)) * dv +
          1e-18;
      EXPECT_LE(std::abs(cur.ids - prev.ids), slopeBound)
          << "jump at vg=" << vg << " w=" << s.geom.w << " l=" << s.geom.l;
      prev = cur;
    }
  }
}

TEST(MosfetProperty, IdsIsMonotoneInVgs) {
  // Physical sanity on the seeded grid: more gate drive, more current (NMOS,
  // fixed positive Vds). The batched kernel must agree bitwise, so checking
  // the scalar kernel covers both.
  std::mt19937_64 rng(123456789);
  const ProcessCard& card = bsim45Card();
  for (const MosSample& s : mosSamples(rng, 8)) {
    const MosDeviceCtx ctx =
        makeMosCtx(card.nmos, MosType::kNmos, s.geom, s.tempK);
    double prevIds = evalMosCtx(ctx, s.vd, 0.0, s.vs, s.vb).ids;
    for (double vg = 0.01; vg <= 1.3; vg += 0.01) {
      const double ids = evalMosCtx(ctx, s.vd, vg, s.vs, s.vb).ids;
      EXPECT_GE(ids, prevIds) << "vg=" << vg << " w=" << s.geom.w;
      prevIds = ids;
    }
  }
}

TEST(MosfetProperty, BlockKernelBitwiseMatchesScalarKernel) {
  // Random (geometry, bias, corner) lanes: evalMosBlock lane l must equal
  // evalMosCtx on lane l's inputs bit for bit — the foundation every
  // higher-level equivalence in this file rests on.
  std::mt19937_64 rng(555555);
  const ProcessCard& card = bsim45Card();
  std::uniform_real_distribution<double> v(-0.2, 1.3);
  for (int trial = 0; trial < 64; ++trial) {
    MosCtxBlock blk;
    std::array<MosDeviceCtx, kSimLanes> ctxs;
    double vd[kSimLanes], vg[kSimLanes], vs[kSimLanes], vb[kSimLanes];
    auto samples = mosSamples(rng, static_cast<int>(kSimLanes));
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const MosType type = (trial % 2) ? MosType::kPmos : MosType::kNmos;
      const MosParams& p = (trial % 2) ? card.pmos : card.nmos;
      ctxs[l] = makeMosCtx(p, type, samples[l].geom, samples[l].tempK);
      blk.sign[l] = ctxs[l].sign;
      blk.vt[l] = ctxs[l].vt;
      blk.n[l] = ctxs[l].n;
      blk.ispec[l] = ctxs[l].ispec;
      blk.sq0[l] = ctxs[l].sq0;
      blk.lambda[l] = ctxs[l].lambda;
      blk.vth0[l] = ctxs[l].vth0;
      blk.gamma[l] = ctxs[l].gamma;
      blk.phi[l] = ctxs[l].phi;
      blk.invN[l] = ctxs[l].invN;
      blk.invVtN[l] = ctxs[l].invVtN;
      blk.negInvVt[l] = ctxs[l].negInvVt;
      vd[l] = v(rng);
      vg[l] = v(rng);
      vs[l] = v(rng);
      vb[l] = v(rng);
    }
    MosOpBlock out;
    evalMosBlock(blk, vd, vg, vs, vb, out);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const MosOp ref = evalMosCtx(ctxs[l], vd[l], vg[l], vs[l], vb[l]);
      ASSERT_BITS_EQ(ref.ids, out.ids[l]);
      ASSERT_BITS_EQ(ref.dIdVd, out.dIdVd[l]);
      ASSERT_BITS_EQ(ref.dIdVg, out.dIdVg[l]);
      ASSERT_BITS_EQ(ref.dIdVs, out.dIdVs[l]);
      ASSERT_BITS_EQ(ref.dIdVb, out.dIdVb[l]);
      ASSERT_BITS_EQ(ref.gm, out.gm[l]);
      ASSERT_BITS_EQ(ref.gds, out.gds[l]);
    }
  }
}

TEST(DiodeProperty, ConductanceIsStrictlyPositive) {
  // gd = dI/dV of the exponential law is positive everywhere — including
  // deep reverse bias, where a careless linearization could return 0 and
  // de-rank the Newton Jacobian.
  std::mt19937_64 rng(24681012);
  std::uniform_real_distribution<double> isat(1e-16, 1e-12);
  std::uniform_real_distribution<double> emission(1.0, 2.0);
  std::uniform_real_distribution<double> temp(233.15, 398.15);
  for (int trial = 0; trial < 32; ++trial) {
    Diode d;
    d.isat = isat(rng);
    d.emission = emission(rng);
    const double tempK = temp(rng);
    for (double vak = -1.0; vak <= 0.9; vak += 0.01) {
      const DiodeOp op = evalDiode(d, vak, tempK);
      EXPECT_GT(op.gd, 0.0) << "vak=" << vak << " isat=" << d.isat;
      EXPECT_TRUE(std::isfinite(op.id));
    }
  }
}

// ---- Physics oracle: Kirchhoff's laws at the operating point -------------

/// Worst Kirchhoff violation of a converged operating point, recomputed from
/// the node voltages and branch currents with the scalar device kernels:
/// per node, the currents leaving it (devices, branch currents, and the
/// solver's gmin to ground) must sum to zero relative to the currents
/// involved; per voltage-defined branch, the branch equation must hold.
/// Returns max over nodes of |sum| / (1 nA + sum of |terms|) and over
/// branches of |violation| / 1 V.
double kirchhoffResidual(const Netlist& nl, const DcResult& op) {
  const std::size_t nodes = nl.nodeCount();
  std::vector<double> net(nodes, 0.0);
  std::vector<double> mag(nodes, 0.0);
  const auto v = [&](NodeId n) { return op.v[static_cast<std::size_t>(n)]; };
  const auto leave = [&](NodeId from, NodeId to, double i) {
    net[static_cast<std::size_t>(from)] += i;
    mag[static_cast<std::size_t>(from)] += std::abs(i);
    net[static_cast<std::size_t>(to)] -= i;
    mag[static_cast<std::size_t>(to)] += std::abs(i);
  };
  const auto branch = [&](std::size_t mnaIndex) {
    return op.branchCurrents[mnaIndex - (nodes - 1)];
  };
  const double gmin = DcOptions{}.gmin;
  for (std::size_t n = 1; n < nodes; ++n)
    leave(static_cast<NodeId>(n), kGround, gmin * op.v[n]);
  for (const auto& r : nl.resistors())
    leave(r.a, r.b, (v(r.a) - v(r.b)) / r.ohms);
  for (const auto& src : nl.isources()) leave(src.p, src.n, src.idc);
  for (const auto& g : nl.vccs()) leave(g.p, g.n, g.gm * (v(g.cp) - v(g.cn)));
  for (const auto& d : nl.diodes())
    leave(d.a, d.k, evalDiode(d, v(d.a) - v(d.k), nl.tempK).id);
  for (const auto& fet : nl.mosfets())
    leave(fet.d, fet.s,
          evalMos(fet.params, fet.type, fet.geom, v(fet.d), v(fet.g), v(fet.s),
                  v(fet.b), nl.tempK)
              .ids);
  double worst = 0.0;
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    leave(src.p, src.n, branch(nl.vsourceBranchIndex(k)));
    worst = std::max(worst, std::abs(v(src.p) - v(src.n) - src.vdc));
  }
  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    leave(e.p, e.n, branch(nl.vcvsBranchIndex(k)));
    worst = std::max(worst, std::abs(v(e.p) - v(e.n) -
                                     e.gain * (v(e.cp) - v(e.cn))));
  }
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const auto& ind = nl.inductors()[k];
    leave(ind.a, ind.b, branch(nl.inductorBranchIndex(k)));
    worst = std::max(worst, std::abs(v(ind.a) - v(ind.b)));
  }
  for (std::size_t n = 1; n < nodes; ++n)
    worst = std::max(worst, std::abs(net[n]) / (1e-9 + mag[n]));
  return worst;
}

/// A few deterministic on-grid sizings spread across the space.
std::vector<linalg::Vector> probeSizings(const core::DesignSpace& space,
                                         int n) {
  std::vector<linalg::Vector> out;
  for (int s = 0; s < n; ++s) {
    linalg::Vector v(space.dim());
    for (std::size_t d = 0; d < space.dim(); ++d) {
      const auto& ax = space.param(d);
      v[d] = space.gridValue(
          d, (static_cast<std::size_t>(s) * 7 + d * 3) % ax.steps);
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// Solve the circuit's testbenches for `sizings` on every corner of the
/// nine-corner sign-off set in four-lane batches, expect Kirchhoff's laws at
/// each converged operating point, and return how many converged. Newton
/// stops when the update falls under 1 nV (+1e-9 relative), so KCL must hold
/// to well under a part per million of the currents at each node.
template <typename Circuit>
int expectKirchhoffAtConvergedPoints(
    const Circuit& circuit, const std::vector<linalg::Vector>& sizings) {
  constexpr double kTol = 1e-6;
  const auto corners = pvt::nineCornerSet(circuit.card().nominalVdd);
  std::vector<typename Circuit::Testbench> tbs;
  for (const auto& x : sizings)
    for (const auto& c : corners) tbs.push_back(circuit.buildTestbench(x, c));
  int converged = 0;
  for (std::size_t off = 0; off < tbs.size(); off += kSimLanes) {
    std::array<const Netlist*, kSimLanes> nls{};
    std::array<const linalg::Vector*, kSimLanes> guesses{};
    for (std::size_t l = 0; l < kSimLanes && off + l < tbs.size(); ++l) {
      nls[l] = &tbs[off + l].netlist;
      guesses[l] = &tbs[off + l].initialGuess;
    }
    const auto ops = solveDcBatch(nls, guesses);
    for (std::size_t l = 0; l < kSimLanes && off + l < tbs.size(); ++l) {
      if (!ops[l].converged) continue;
      ++converged;
      EXPECT_LE(kirchhoffResidual(*nls[l], ops[l]), kTol)
          << "testbench " << off + l;
    }
  }
  return converged;
}

TEST(SimOracle, KirchhoffHoldsAtEveryConvergedOperatingPoint) {
  using circuits::FoldedCascodeOta;
  using circuits::Ico;
  using circuits::Ldo;
  using circuits::TwoStageOpamp;
  EXPECT_GT(expectKirchhoffAtConvergedPoints(
                TwoStageOpamp(bsim45Card()),
                probeSizings(TwoStageOpamp::designSpace(bsim45Card()), 2)),
            0);
  EXPECT_GT(expectKirchhoffAtConvergedPoints(
                FoldedCascodeOta(bsim45Card()),
                probeSizings(FoldedCascodeOta::designSpace(bsim45Card()), 2)),
            0);
  auto ldoSizings = probeSizings(Ldo::designSpace(n6Card()), 2);
  ldoSizings.push_back(Ldo::humanReferenceSizing());
  EXPECT_GT(expectKirchhoffAtConvergedPoints(Ldo(n6Card()), ldoSizings), 0);
  auto icoSizings = probeSizings(Ico::designSpace(n5Card()), 2);
  icoSizings.push_back(Ico::humanReferenceSizing());
  EXPECT_GT(expectKirchhoffAtConvergedPoints(Ico(n5Card()), icoSizings), 0);
}

}  // namespace
}  // namespace trdse::sim

// ---- EvalEngine-level equivalence ----------------------------------------

namespace trdse::eval {
namespace {

testing::AssertionResult sameBits(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << std::scientific << a << " vs " << b << " (bit patterns differ)";
}

using sim::probeSizings;

/// Engines over the same registry circuit that differ only in chunk shape:
/// `wide` is the four-lane CircuitBackend, `narrow` a one-lane
/// CallbackBackend over the problem's own evaluate (one simulator pass per
/// request).
struct EnginePair {
  std::shared_ptr<CircuitBackend> wide;
  std::shared_ptr<CallbackBackend> narrow;
  std::vector<sim::PvtCorner> corners;
  explicit EnginePair(const std::string& name)
      : wide(std::make_shared<CircuitBackend>(name)),
        narrow(std::make_shared<CallbackBackend>(wide->problem().evaluate)),
        corners(pvt::nineCornerSet(wide->problem().corners[0].vdd)) {}
  EvalEngine make(bool useWide, EvalEngineConfig cfg) const {
    const core::SizingProblem& p = wide->problem();
    std::shared_ptr<const EvalBackend> backend = wide;
    if (!useWide) backend = narrow;
    return EvalEngine(backend, p.space, corners,
                      makeMeetsSpec(core::ValueFunction(p.measurementNames,
                                                        p.specs)),
                      cfg);
  }
};

void expectSameBits(const std::vector<core::EvalResult>& a,
                    const std::vector<core::EvalResult>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].ok, b[c].ok) << what << " slot " << c;
    ASSERT_EQ(a[c].failure, b[c].failure) << what << " slot " << c;
    ASSERT_EQ(a[c].measurements.size(), b[c].measurements.size());
    for (std::size_t m = 0; m < a[c].measurements.size(); ++m)
      ASSERT_TRUE(sameBits(a[c].measurements[m], b[c].measurements[m]))
          << what << " slot " << c << " meas " << m;
  }
}

TEST(EvalEngineBatch, RegistryCircuitsBitwiseIdenticalAcrossWidthsAndThreads) {
  // For every registry circuit, every corner of the nine-corner sign-off set,
  // and every thread count, the engine over the four-lane CircuitBackend
  // returns byte-identical results, ledger, and stats (minus wall-clock) to
  // the engine over a one-lane CallbackBackend(problem.evaluate). Caching is
  // off so every request actually exercises the backend dispatch under test.
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const EnginePair pair(name);
    ASSERT_EQ(pair.wide->batchWidth(), sim::kSimLanes) << name;
    ASSERT_EQ(pair.narrow->batchWidth(), 1u) << name;
    std::vector<std::size_t> cornerIdx(pair.corners.size());
    for (std::size_t i = 0; i < cornerIdx.size(); ++i) cornerIdx[i] = i;
    const auto sizings = probeSizings(pair.wide->problem().space, 2);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      const EvalEngineConfig cfg{/*cacheEvals=*/false, threads,
                                 /*recordLedger=*/true};
      EvalEngine narrowEngine = pair.make(false, cfg);
      EvalEngine wideEngine = pair.make(true, cfg);
      for (const auto& v : sizings) {
        const auto rn = narrowEngine.evalBatch(cornerIdx, v,
                                               pvt::BlockKind::kSearch);
        const auto rw =
            wideEngine.evalBatch(cornerIdx, v, pvt::BlockKind::kSearch);
        expectSameBits(rn, rw, name + " threads " + std::to_string(threads));
      }
      // Ledger: identical block sequence (EdaBlock carries no wall-clock).
      const auto& ln = narrowEngine.ledger().blocks();
      const auto& lw = wideEngine.ledger().blocks();
      ASSERT_EQ(ln.size(), lw.size()) << name;
      for (std::size_t i = 0; i < ln.size(); ++i) {
        EXPECT_EQ(ln[i].cornerIndex, lw[i].cornerIndex);
        EXPECT_EQ(ln[i].kind, lw[i].kind);
        EXPECT_EQ(ln[i].meetsSpec, lw[i].meetsSpec);
        EXPECT_EQ(ln[i].cached, lw[i].cached);
        EXPECT_EQ(ln[i].failed, lw[i].failed);
        EXPECT_EQ(ln[i].retries, lw[i].retries);
        EXPECT_EQ(ln[i].backoff, lw[i].backoff);
      }
      // Stats: identical except backendSeconds (wall time, not semantics).
      const EvalStats& sn = narrowEngine.stats();
      const EvalStats& sw = wideEngine.stats();
      EXPECT_EQ(sn.requests, sw.requests);
      EXPECT_EQ(sn.simulated, sw.simulated);
      EXPECT_EQ(sn.cacheHits, sw.cacheHits);
      EXPECT_EQ(sn.sharedHits, sw.sharedHits);
      EXPECT_EQ(sn.attempts, sw.attempts);
      EXPECT_EQ(sn.faults, sw.faults);
      EXPECT_EQ(sn.failures, sw.failures);
      EXPECT_EQ(sn.backoffUnits, sw.backoffUnits);
    }
  }
}

TEST(EvalEngineBatch, OddBatchSizesAndRepeatsStayBitwiseIdentical) {
  // Request counts that do not divide the lane width (1, 3, 5, 9 requests)
  // force ragged tail chunks; duplicates force the cache-dedup path to
  // interact with chunking; evalOne is a chunk of one. All must be invisible
  // in the results.
  const EnginePair pair("two_stage_opamp");
  const auto sizings = probeSizings(pair.wide->problem().space, 1);
  for (const std::size_t n : {1u, 3u, 5u, 9u}) {
    std::vector<std::size_t> cornerIdx(n);
    for (std::size_t i = 0; i < n; ++i) cornerIdx[i] = i % 9;
    EvalEngine narrowEngine = pair.make(false, EvalEngineConfig{});
    EvalEngine wideEngine = pair.make(true, EvalEngineConfig{});
    const auto rn =
        narrowEngine.evalBatch(cornerIdx, sizings[0], pvt::BlockKind::kSearch);
    const auto rw =
        wideEngine.evalBatch(cornerIdx, sizings[0], pvt::BlockKind::kSearch);
    expectSameBits(rn, rw, std::to_string(n) + " requests");
    // evalOne on a fresh engine (a miss) reproduces the batch slot.
    EvalEngine single = pair.make(true, EvalEngineConfig{});
    expectSameBits({single.evalOne(cornerIdx[n - 1], sizings[0],
                                   pvt::BlockKind::kSearch)},
                   {rw[n - 1]}, "evalOne");
  }
}

TEST(EvalEngineBatch, ProblemBatchEvaluatorMatchesOneLaneEvaluatePerSlot) {
  // The raw SizingProblem::evaluateBatch contract, without the engine in
  // between: slot i == evaluate(sizes, corners[i]) (a one-lane batch), bit
  // for bit, for a ragged count too.
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const auto nominal = reg.makeProblem(name);
    const double vdd = nominal.corners.empty() ? 1.1 : nominal.corners[0].vdd;
    const auto problem = reg.makeProblem(name, pvt::nineCornerSet(vdd));
    const auto sizings = probeSizings(problem.space, 1);
    const std::size_t count = problem.corners.size();  // 9: ragged tail of 1
    std::vector<core::EvalResult> batch(count);
    const std::vector<const linalg::Vector*> slotSizes(count, &sizings[0]);
    problem.evaluateBatch(slotSizes.data(), problem.corners.data(),
                          batch.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const core::EvalResult ref =
          problem.evaluate(sizings[0], problem.corners[i]);
      ASSERT_EQ(ref.ok, batch[i].ok) << name << " slot " << i;
      ASSERT_EQ(ref.measurements.size(), batch[i].measurements.size());
      for (std::size_t m = 0; m < ref.measurements.size(); ++m)
        ASSERT_TRUE(sameBits(ref.measurements[m], batch[i].measurements[m]))
            << name << " slot " << i << " meas " << m;
    }
  }
}

TEST(AssemblyPlanCache, RepeatSweepsRebuildNothingAndStayBitwise) {
  // The tentpole property: the per-topology AssemblyPlan is built once on
  // the first evaluation of a topology and every later sweep — same sizing
  // or a different one on the same schematic — reuses it verbatim. Reuse
  // must be invisible in the numbers: a warm-cache sweep reproduces the
  // cold-cache sweep bit for bit, and a cold rebuild is deterministic
  // (same build count, same bits).
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const auto nominal = reg.makeProblem(name);
    const double vdd = nominal.corners.empty() ? 1.1 : nominal.corners[0].vdd;
    const auto problem = reg.makeProblem(name, pvt::nineCornerSet(vdd));
    const auto sizings = probeSizings(problem.space, 2);
    const std::size_t count = problem.corners.size();
    const auto sweep = [&](const linalg::Vector& x) {
      std::vector<core::EvalResult> out(count);
      const std::vector<const linalg::Vector*> slots(count, &x);
      problem.evaluateBatch(slots.data(), problem.corners.data(), out.data(),
                            count);
      return out;
    };
    const auto expectSameBits = [&](const std::vector<core::EvalResult>& a,
                                    const std::vector<core::EvalResult>& b) {
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].ok, b[i].ok) << name << " slot " << i;
        ASSERT_EQ(a[i].measurements.size(), b[i].measurements.size());
        for (std::size_t m = 0; m < a[i].measurements.size(); ++m)
          ASSERT_TRUE(sameBits(a[i].measurements[m], b[i].measurements[m]))
              << name << " slot " << i << " meas " << m;
      }
    };

    sim::clearPlanCache();
    const std::uint64_t cold0 = sim::planBuildCount();
    const auto first = sweep(sizings[0]);
    const std::uint64_t coldBuilds = sim::planBuildCount() - cold0;
    EXPECT_GT(coldBuilds, 0u) << name << ": cold sweep built no plan";

    // Warm sweeps: same sizing, then a different sizing on the same
    // topology. Neither may build anything.
    const auto repeat = sweep(sizings[0]);
    const auto other = sweep(sizings[1]);
    (void)other;
    EXPECT_EQ(sim::planBuildCount() - cold0, coldBuilds)
        << name << ": warm sweep rebuilt a plan";
    expectSameBits(first, repeat);

    // Cold rebuild is deterministic: same build count, same bits.
    sim::clearPlanCache();
    const std::uint64_t cold1 = sim::planBuildCount();
    const auto rebuilt = sweep(sizings[0]);
    EXPECT_EQ(sim::planBuildCount() - cold1, coldBuilds) << name;
    expectSameBits(first, rebuilt);
  }
}

/// Deterministic synthetic backend that records how the engine shaped its
/// dispatch: every evaluateBatch chunk size in call order. Results are a
/// pure function of (sizes[0], corner), so any chunking yields the same bits.
class ChunkRecordingBackend final : public EvalBackend {
 public:
  explicit ChunkRecordingBackend(std::size_t width) : width_(width) {}

  std::string_view name() const override { return "chunk-recording"; }

  std::size_t batchWidth() const override { return width_; }

  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners, const EvalContext*,
                     core::EvalResult* results,
                     std::size_t count) const override {
    chunkSizes.push_back(count);
    for (std::size_t i = 0; i < count; ++i) {
      results[i].ok = true;
      results[i].measurements = linalg::Vector(1);
      results[i].measurements[0] =
          (*sizes[i])[0] + 1e3 * corners[i].vdd + corners[i].tempC;
    }
  }

  mutable std::vector<std::size_t> chunkSizes;

 private:
  std::size_t width_;
};

TEST(EvalEngineBatch, ChunkShapeIsFullLanesThenRaggedTail) {
  // Misses go down in consecutive chunks of the backend's width with a
  // ragged last chunk — a lone request is a chunk of one, never a scalar
  // side path — and a width-1 backend sees one chunk per miss. Checked
  // against the recorded dispatch shape for every remainder class of width
  // 4, with results identical to the width-1 engine.
  const auto problem = circuits::Registry::global().makeProblem(
      "two_stage_opamp", pvt::nineCornerSet(1.1));
  struct Case {
    std::size_t requests;
    std::vector<std::size_t> wantChunks;
  };
  const std::vector<Case> cases = {
      {1, {1}}, {4, {4}}, {5, {4, 1}}, {6, {4, 2}}, {9, {4, 4, 1}},
  };
  for (const Case& c : cases) {
    auto wide = std::make_shared<ChunkRecordingBackend>(4);
    auto narrow = std::make_shared<ChunkRecordingBackend>(1);
    // threads=1 keeps chunk completion in submission order so the recorded
    // shape is deterministic; cache off so every request is a miss.
    const EvalEngineConfig cfg{false, 1, true};
    EvalEngine engine(wide, problem.space, problem.corners, {}, cfg);
    EvalEngine narrowEngine(narrow, problem.space, problem.corners, {}, cfg);
    std::vector<std::size_t> cornerIdx(c.requests);
    for (std::size_t i = 0; i < c.requests; ++i) cornerIdx[i] = i % 9;
    const auto sizing = probeSizings(problem.space, 1)[0];
    const auto got =
        engine.evalBatch(cornerIdx, sizing, pvt::BlockKind::kSearch);
    const auto want =
        narrowEngine.evalBatch(cornerIdx, sizing, pvt::BlockKind::kSearch);

    EXPECT_EQ(wide->chunkSizes, c.wantChunks)
        << c.requests << " requests: unexpected batch chunking";
    EXPECT_EQ(narrow->chunkSizes, std::vector<std::size_t>(c.requests, 1))
        << c.requests << " requests: width-1 backend must see chunks of one";
    expectSameBits(got, want, std::to_string(c.requests) + " requests");
  }
  // evalOne is a chunk of one on the same path.
  auto wide = std::make_shared<ChunkRecordingBackend>(4);
  EvalEngine engine(wide, problem.space, problem.corners, {},
                    EvalEngineConfig{false, 1, true});
  engine.evalOne(3, probeSizings(problem.space, 1)[0], pvt::BlockKind::kSearch);
  EXPECT_EQ(wide->chunkSizes, std::vector<std::size_t>{1});
}

}  // namespace
}  // namespace trdse::eval
