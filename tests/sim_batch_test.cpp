// Differential + property harness locking the scalar<->batched simulator
// equivalence (sim/op_batch.hpp and the EvalEngine batchedSim dispatch).
//
// Every numeric comparison here is on the *bit pattern* of the doubles, not
// an epsilon: the batched backend's contract is that lane l reproduces the
// scalar solver exactly (see the op_batch.hpp header for how the kernels and
// compile flags guarantee it). An epsilon test would quietly accept the
// contraction/vectorization drift these tests exist to catch.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <vector>

#include <atomic>
#include <memory>

#include "circuits/registry.hpp"
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

// ---- DC ------------------------------------------------------------------

TEST(SimBatchDc, EveryLaneBitwiseMatchesScalarSolver) {
  const SinkLanes lanes;
  const auto batch = solveDcBatch(lanes.nlp, lanes.gp);
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const DcResult scalar = DcSolver(lanes.nls[l]).solve(lanes.gp[l]);
    const DcResult& b = batch[l];
    ASSERT_EQ(scalar.converged, b.converged) << "lane " << l;
    EXPECT_EQ(scalar.iterations, b.iterations) << "lane " << l;
    ASSERT_EQ(scalar.v.size(), b.v.size());
    for (std::size_t i = 0; i < scalar.v.size(); ++i)
      ASSERT_BITS_EQ(scalar.v[i], b.v[i]);
    ASSERT_EQ(scalar.branchCurrents.size(), b.branchCurrents.size());
    for (std::size_t i = 0; i < scalar.branchCurrents.size(); ++i)
      ASSERT_BITS_EQ(scalar.branchCurrents[i], b.branchCurrents[i]);
    ASSERT_EQ(scalar.mosOps.size(), b.mosOps.size());
    for (std::size_t i = 0; i < scalar.mosOps.size(); ++i) {
      EXPECT_BITS_EQ(scalar.mosOps[i].ids, b.mosOps[i].ids);
      EXPECT_BITS_EQ(scalar.mosOps[i].gm, b.mosOps[i].gm);
      EXPECT_BITS_EQ(scalar.mosOps[i].gds, b.mosOps[i].gds);
    }
    ASSERT_EQ(scalar.diodeConductances.size(), b.diodeConductances.size());
    for (std::size_t i = 0; i < scalar.diodeConductances.size(); ++i)
      EXPECT_BITS_EQ(scalar.diodeConductances[i], b.diodeConductances[i]);
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

TEST(SimBatchTransient, TracesBitwiseMatchScalarSolver) {
  const SinkLanes lanes;
  std::array<DcResult, kSimLanes> ops;
  for (std::size_t l = 0; l < kSimLanes; ++l)
    ops[l] = DcSolver(lanes.nls[l]).solve(lanes.gp[l]);

  TransientOptions topt;
  topt.tStop = 2e-10;
  topt.dt = 1e-12;
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) init[l] = &ops[l].v;

  TransientBatch batch(lanes.nlp, topt, init);
  batch.run();
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const TransientResult scalar =
        TransientSolver(lanes.nls[l], topt).run(ops[l].v);
    const TransientResult& b = batch.result(static_cast<int>(l));
    ASSERT_EQ(scalar.completed, b.completed) << "lane " << l;
    ASSERT_EQ(scalar.times.size(), b.times.size()) << "lane " << l;
    for (std::size_t t = 0; t < scalar.times.size(); ++t) {
      ASSERT_BITS_EQ(scalar.times[t], b.times[t]);
      ASSERT_EQ(scalar.voltages[t].size(), b.voltages[t].size());
      for (std::size_t i = 0; i < scalar.voltages[t].size(); ++i)
        ASSERT_BITS_EQ(scalar.voltages[t][i], b.voltages[t][i]);
      for (std::size_t i = 0; i < scalar.branchCurrents[t].size(); ++i)
        ASSERT_BITS_EQ(scalar.branchCurrents[t][i], b.branchCurrents[t][i]);
    }
  }
}

TEST(SimBatchTransient, SlicedSteppingEqualsSingleRun) {
  const SinkLanes lanes;
  std::array<DcResult, kSimLanes> ops;
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    ops[l] = DcSolver(lanes.nls[l]).solve(lanes.gp[l]);
    init[l] = &ops[l].v;
  }
  TransientOptions topt;
  topt.tStop = 2e-10;
  topt.dt = 1e-12;

  TransientBatch whole(lanes.nlp, topt, init);
  whole.run();

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
      ASSERT_EQ(a.times.size(), b.times.size());
      for (std::size_t t = 0; t < a.times.size(); ++t)
        for (std::size_t i = 0; i < a.voltages[t].size(); ++i)
          ASSERT_BITS_EQ(a.voltages[t][i], b.voltages[t][i]);
    }
  }
}

// ---- AC ------------------------------------------------------------------

TEST(SimBatchAc, SweepBitwiseMatchesScalarSolver) {
  const SinkLanes lanes;
  std::array<DcResult, kSimLanes> dcs;
  std::array<const DcResult*, kSimLanes> ops{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    dcs[l] = DcSolver(lanes.nls[l]).solve(lanes.gp[l]);
    ops[l] = &dcs[l];
  }
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

TEST(EvalEngineBatch, RegistryCircuitsBitwiseIdenticalAcrossModesAndThreads) {
  // The acceptance bar of the batched backend: for every registry circuit,
  // every corner of the nine-corner sign-off set, and every thread count,
  // the engine with batchedSim on returns byte-identical results, ledger,
  // and stats (minus wall-clock) to the scalar engine. Caching is off so
  // every request actually exercises the backend dispatch under test.
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const auto nominal = reg.makeProblem(name);
    ASSERT_TRUE(static_cast<bool>(nominal.evaluateBatch))
        << name << " does not publish a batch evaluator";
    const double vdd = nominal.corners.empty() ? 1.1 : nominal.corners[0].vdd;
    const auto problem = reg.makeProblem(name, pvt::nineCornerSet(vdd));
    std::vector<std::size_t> cornerIdx(problem.corners.size());
    for (std::size_t i = 0; i < cornerIdx.size(); ++i) cornerIdx[i] = i;
    const auto sizings = probeSizings(problem.space, 2);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      EvalEngineConfig scalarCfg{/*cacheEvals=*/false, threads,
                                 /*recordLedger=*/true, /*batchedSim=*/false};
      EvalEngineConfig batchCfg{/*cacheEvals=*/false, threads,
                                /*recordLedger=*/true, /*batchedSim=*/true};
      EvalEngine scalarEngine(problem, scalarCfg);
      EvalEngine batchEngine(problem, batchCfg);
      for (const auto& v : sizings) {
        const auto rs = scalarEngine.evalBatch(cornerIdx, v,
                                               pvt::BlockKind::kSearch);
        const auto rb = batchEngine.evalBatch(cornerIdx, v,
                                              pvt::BlockKind::kSearch);
        ASSERT_EQ(rs.size(), rb.size());
        for (std::size_t c = 0; c < rs.size(); ++c) {
          ASSERT_EQ(rs[c].ok, rb[c].ok)
              << name << " corner " << c << " threads " << threads;
          ASSERT_EQ(rs[c].failure, rb[c].failure);
          ASSERT_EQ(rs[c].measurements.size(), rb[c].measurements.size());
          for (std::size_t m = 0; m < rs[c].measurements.size(); ++m)
            ASSERT_TRUE(sameBits(rs[c].measurements[m], rb[c].measurements[m]))
                << name << " corner " << c << " meas " << m << " threads "
                << threads;
        }
      }
      // Ledger: identical block sequence (EdaBlock carries no wall-clock).
      const auto& ls = scalarEngine.ledger().blocks();
      const auto& lb = batchEngine.ledger().blocks();
      ASSERT_EQ(ls.size(), lb.size()) << name;
      for (std::size_t i = 0; i < ls.size(); ++i) {
        EXPECT_EQ(ls[i].cornerIndex, lb[i].cornerIndex);
        EXPECT_EQ(ls[i].kind, lb[i].kind);
        EXPECT_EQ(ls[i].meetsSpec, lb[i].meetsSpec);
        EXPECT_EQ(ls[i].cached, lb[i].cached);
        EXPECT_EQ(ls[i].failed, lb[i].failed);
        EXPECT_EQ(ls[i].retries, lb[i].retries);
        EXPECT_EQ(ls[i].backoff, lb[i].backoff);
      }
      // Stats: identical except backendSeconds (wall time, not semantics).
      const EvalStats& ss = scalarEngine.stats();
      const EvalStats& sb = batchEngine.stats();
      EXPECT_EQ(ss.requests, sb.requests);
      EXPECT_EQ(ss.simulated, sb.simulated);
      EXPECT_EQ(ss.cacheHits, sb.cacheHits);
      EXPECT_EQ(ss.sharedHits, sb.sharedHits);
      EXPECT_EQ(ss.attempts, sb.attempts);
      EXPECT_EQ(ss.faults, sb.faults);
      EXPECT_EQ(ss.failures, sb.failures);
      EXPECT_EQ(ss.backoffUnits, sb.backoffUnits);
    }
  }
}

TEST(EvalEngineBatch, OddBatchSizesAndRepeatsStayBitwiseIdentical) {
  // Request counts that do not divide the lane width (1, 3, 5, 9 requests)
  // force ragged tail chunks; duplicates force the cache-dedup path to
  // interact with chunking. All must be invisible in the results.
  const auto& reg = circuits::Registry::global();
  const auto problem =
      reg.makeProblem("two_stage_opamp", pvt::nineCornerSet(1.1));
  const auto sizings = probeSizings(problem.space, 1);
  for (const std::size_t n : {1u, 3u, 5u, 9u}) {
    std::vector<std::size_t> cornerIdx(n);
    for (std::size_t i = 0; i < n; ++i) cornerIdx[i] = i % 9;
    EvalEngine scalarEngine(
        problem, EvalEngineConfig{true, 1, true, /*batchedSim=*/false});
    EvalEngine batchEngine(
        problem, EvalEngineConfig{true, 1, true, /*batchedSim=*/true});
    const auto rs =
        scalarEngine.evalBatch(cornerIdx, sizings[0], pvt::BlockKind::kSearch);
    const auto rb =
        batchEngine.evalBatch(cornerIdx, sizings[0], pvt::BlockKind::kSearch);
    ASSERT_EQ(rs.size(), rb.size());
    for (std::size_t c = 0; c < rs.size(); ++c) {
      ASSERT_EQ(rs[c].ok, rb[c].ok);
      for (std::size_t m = 0; m < rs[c].measurements.size(); ++m)
        ASSERT_TRUE(sameBits(rs[c].measurements[m], rb[c].measurements[m]));
    }
  }
}

TEST(EvalEngineBatch, ProblemBatchEvaluatorMatchesScalarEvaluatePerSlot) {
  // The raw SizingProblem::evaluateBatch contract, without the engine in
  // between: slot i == evaluate(sizes, corners[i]), bit for bit, for a
  // ragged count too.
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
/// dispatch: every evaluateBatch chunk size in call order, plus the number
/// of scalar calls. Results are a pure function of (sizes[0], corner) so
/// the batched and scalar paths are trivially bitwise identical.
class ChunkRecordingBackend final : public EvalBackend {
 public:
  std::string_view name() const override { return "chunk-recording"; }

  core::EvalResult evaluate(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner) const override {
    ++scalarCalls;
    return make(sizes, corner);
  }

  std::size_t batchWidth() const override { return 4; }

  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners, const EvalContext*,
                     core::EvalResult* results,
                     std::size_t count) const override {
    chunkSizes.push_back(count);
    for (std::size_t i = 0; i < count; ++i)
      results[i] = make(*sizes[i], corners[i]);
  }

  static core::EvalResult make(const linalg::Vector& sizes,
                               const sim::PvtCorner& corner) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = linalg::Vector(1);
    r.measurements[0] = sizes[0] + 1e3 * corner.vdd + corner.tempC;
    return r;
  }

  mutable std::size_t scalarCalls = 0;
  mutable std::vector<std::size_t> chunkSizes;
};

TEST(EvalEngineBatch, RaggedTailOfOneDispatchesScalar) {
  // The tail rule: a trailing chunk of exactly one miss runs through the
  // scalar path (same bits by the batch contract, one lane's cost instead
  // of a whole batch); tails of 2..width-1 stay batched. Verified against
  // the recorded dispatch shape for every remainder class of width 4, with
  // results identical to a batched-off engine.
  const auto problem = circuits::Registry::global().makeProblem(
      "two_stage_opamp", pvt::nineCornerSet(1.1));
  struct Case {
    std::size_t requests;
    std::vector<std::size_t> wantChunks;
    std::size_t wantScalar;
  };
  const std::vector<Case> cases = {
      {1, {}, 1},        // lone request: batch of 1 would waste 3 lanes
      {4, {4}, 0},       // exact chunk
      {5, {4}, 1},       // tail of 1 -> scalar
      {6, {4, 2}, 0},    // tail of 2 stays batched
      {9, {4, 4}, 1},    // two chunks + scalar tail
  };
  for (const Case& c : cases) {
    auto backend = std::make_shared<ChunkRecordingBackend>();
    auto scalarBackend = std::make_shared<ChunkRecordingBackend>();
    // threads=1 keeps chunk completion in submission order so the recorded
    // shape is deterministic; cache off so every request is a miss.
    EvalEngine engine(backend, problem.space, problem.corners, {},
                      EvalEngineConfig{false, 1, true, /*batchedSim=*/true});
    EvalEngine scalarEngine(
        scalarBackend, problem.space, problem.corners, {},
        EvalEngineConfig{false, 1, true, /*batchedSim=*/false});
    std::vector<std::size_t> cornerIdx(c.requests);
    for (std::size_t i = 0; i < c.requests; ++i) cornerIdx[i] = i % 9;
    const auto sizing = probeSizings(problem.space, 1)[0];
    const auto got =
        engine.evalBatch(cornerIdx, sizing, pvt::BlockKind::kSearch);
    const auto want =
        scalarEngine.evalBatch(cornerIdx, sizing, pvt::BlockKind::kSearch);

    EXPECT_EQ(backend->chunkSizes, c.wantChunks)
        << c.requests << " requests: unexpected batch chunking";
    EXPECT_EQ(backend->scalarCalls, c.wantScalar)
        << c.requests << " requests: unexpected scalar-call count";
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].ok, want[i].ok);
      for (std::size_t m = 0; m < got[i].measurements.size(); ++m)
        ASSERT_TRUE(sameBits(got[i].measurements[m], want[i].measurements[m]));
    }
  }
}

}  // namespace
}  // namespace trdse::eval
