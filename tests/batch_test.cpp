// Correctness tests for the batched inference/training path: the blocked
// GEMM kernels against naive references, the batched layer/network APIs
// against single-row predict() and finite differences, batched surrogate
// scoring, golden seeded outcomes of the batched trust-region planners, and
// the thread-parallel PVT evaluation pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/local_explorer.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "core/surrogate.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"

namespace trdse {
namespace {

using linalg::Matrix;
using linalg::Vector;

Matrix randomMatrix(std::size_t r, std::size_t c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = d(rng);
  return m;
}

/// Naive reference GEMM (no blocking) for validating the tiled kernel.
Matrix refMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

// ---------- linalg kernels ----------

TEST(Gemm, BlockedMatMulMatchesReference) {
  std::mt19937_64 rng(1);
  // Shapes straddle the 32-row and 256-depth tile boundaries.
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {33, 40, 7}, {70, 300, 50}, {64, 256, 32}};
  for (const auto& s : shapes) {
    const Matrix a = randomMatrix(s[0], s[1], rng);
    const Matrix b = randomMatrix(s[1], s[2], rng);
    const Matrix c = linalg::matMul(a, b);
    const Matrix ref = refMatMul(a, b);
    ASSERT_EQ(c.rows(), ref.rows());
    ASSERT_EQ(c.cols(), ref.cols());
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-12) << "shape " << s[0];
  }
}

TEST(Gemm, MatMulTransBMatchesExplicitTranspose) {
  std::mt19937_64 rng(2);
  const Matrix a = randomMatrix(41, 19, rng);
  const Matrix b = randomMatrix(23, 19, rng);  // b^T is 19 x 23
  const Matrix c = linalg::matMulTransB(a, b);
  const Matrix ref = refMatMul(a, linalg::transpose(b));
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-12);
}

TEST(Gemm, MatMulIntoReusesBuffersAcrossShapes) {
  std::mt19937_64 rng(3);
  Matrix c;
  for (std::size_t n : {4u, 9u, 2u}) {  // shrink + regrow
    const Matrix a = randomMatrix(n, n + 1, rng);
    const Matrix b = randomMatrix(n + 1, n + 2, rng);
    linalg::matMulInto(a, b, c);
    const Matrix ref = refMatMul(a, b);
    ASSERT_EQ(c.rows(), n);
    ASSERT_EQ(c.cols(), n + 2);
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-12);
  }
}

/// The row-by-row rank-1 loop (plus row-by-row column sums) that
/// gemmAtBAccum replaced, kept as its reference.
void refGemmAtBAccum(const Matrix& a, const Matrix& b, Matrix& c,
                     Vector& colSums) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row(r);
    const double* br = b.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double coeff = ar[i];
      if (coeff == 0.0) continue;
      double* ci = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += coeff * br[j];
    }
  }
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t i = 0; i < a.cols(); ++i) colSums[i] += a(r, i);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Gemm, GemmAtBAccumMatchesRankOneUpdates) {
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<int> pick(0, 5);
  // Output rows: full 2-row tiles and an odd tail row. Columns: full 8-wide
  // tiles and the 4-wide / single-column tails. Batch rows: 1, 16, 17.
  for (std::size_t m : {1u, 2u, 3u, 6u, 7u}) {
    for (std::size_t n : {1u, 4u, 8u, 9u, 13u, 16u, 24u}) {
      for (std::size_t batch : {1u, 16u, 17u}) {
        Matrix g = randomMatrix(batch, m, rng);  // batch x out
        const Matrix x = randomMatrix(batch, n, rng);  // batch x in
        // Exact-zero coefficients of both signs take the skip.
        for (std::size_t i = 0; i < g.size(); ++i) {
          const int k = pick(rng);
          if (k == 0) g.data()[i] = 0.0;
          if (k == 1) g.data()[i] = -0.0;
        }
        // A nonzero start (+= semantics) with some -0.0 entries, which a
        // skipped update must leave as -0.0.
        Matrix acc = randomMatrix(m, n, rng);
        for (std::size_t i = 0; i < acc.size(); ++i)
          if (pick(rng) == 0) acc.data()[i] = -0.0;
        Vector sums(m);
        for (std::size_t i = 0; i < m; ++i)
          sums[i] = i % 3 == 0 ? -0.0 : acc.data()[i];
        Matrix ref = acc;
        Vector refSums = sums;
        linalg::gemmAtBAccum(g, x, acc, sums);
        refGemmAtBAccum(g, x, ref, refSums);
        for (std::size_t i = 0; i < acc.size(); ++i)
          EXPECT_EQ(bits(acc.data()[i]), bits(ref.data()[i]))
              << "m=" << m << " n=" << n << " batch=" << batch << " i=" << i;
        for (std::size_t i = 0; i < m; ++i)
          EXPECT_EQ(bits(sums[i]), bits(refSums[i]))
              << "m=" << m << " n=" << n << " batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(Gemm, RowwiseHelpers) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  linalg::addRowwise(m, Vector{10.0, 20.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 26.0);
}

TEST(Matrix, AlignedStorage) {
  Matrix m(7, 5, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
}

// ---------- batched network equivalence ----------

/// predictBatch must match per-sample predict to <= 1e-12 on every layer
/// shape / activation combination the repo uses.
TEST(MlpBatch, PredictBatchMatchesPredict) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> d(-1.5, 1.5);
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 8, 2}, {9, 48, 48, 4}, {12, 64, 64, 64, 6}, {2, 5, 1}};
  const nn::Activation hiddens[] = {nn::Activation::kTanh,
                                    nn::Activation::kRelu,
                                    nn::Activation::kIdentity};
  for (const auto& sizes : shapes) {
    for (const auto hidden : hiddens) {
      nn::MlpConfig cfg;
      cfg.layerSizes = sizes;
      cfg.hidden = hidden;
      nn::Mlp net(cfg, 7);
      const std::size_t batch = 33;
      Matrix x(batch, sizes.front());
      for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = d(rng);
      const Matrix out = net.predictBatch(x);
      ASSERT_EQ(out.rows(), batch);
      ASSERT_EQ(out.cols(), sizes.back());
      for (std::size_t r = 0; r < batch; ++r) {
        const Vector xi(x.row(r), x.row(r) + sizes.front());
        const Vector yi = net.predict(xi);
        for (std::size_t c = 0; c < yi.size(); ++c)
          EXPECT_NEAR(out(r, c), yi[c], 1e-12)
              << "shape[0]=" << sizes.front() << " act " << toString(hidden);
      }
    }
  }
}

/// Finite-difference oracle for the batched training pass: forwardBatch must
/// reproduce predict() row by row, and backwardBatch's accumulated gradient
/// for a 10-row batch must match numerical differentiation of the linear
/// functional L = sum_r <g_r, f(x_r)> whose dL/dY is the injected `g`.
TEST(MlpBatch, ForwardBackwardBatchMatchesFiniteDifference) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  nn::MlpConfig cfg;
  cfg.layerSizes = {4, 16, 3};
  const std::size_t batch = 10;
  Matrix x(batch, 4);
  Matrix g(batch, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = d(rng);
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = d(rng);

  nn::Mlp net(cfg, 21);
  net.zeroGrad();
  const Matrix& out = net.forwardBatch(x);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector yr = net.predict(Vector(x.row(r), x.row(r) + 4));
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(out(r, c), yr[c]);
  }
  net.backwardBatch(g);
  const Vector analytic = net.getGradients();

  const auto functional = [&](const nn::Mlp& m) {
    const Matrix y = m.predictBatch(x);
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) s += g.data()[i] * y.data()[i];
    return s;
  };
  const Vector p0 = net.getParameters();
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < p0.size(); i += 5) {
    Vector p = p0;
    p[i] += kEps;
    net.setParameters(p);
    const double plus = functional(net);
    p[i] -= 2 * kEps;
    net.setParameters(p);
    const double minus = functional(net);
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * kEps), 1e-6) << "param " << i;
  }
}

/// The per-sample trainer the batched trainEpochMse replaced, kept here as
/// the reference implementation: every sample runs its own one-row
/// forwardBatch/backwardBatch pass, accumulating into the same gradients.
nn::TrainStats refTrainEpochMse(nn::Mlp& net, nn::Optimizer& opt,
                                const std::vector<Vector>& inputs,
                                const std::vector<Vector>& targets,
                                std::size_t batchSize, std::mt19937_64& rng) {
  nn::TrainStats stats;
  if (inputs.empty()) return stats;
  batchSize = std::max<std::size_t>(1, batchSize);
  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  double lossSum = 0.0;
  std::size_t seen = 0;
  Matrix xRow(1, inputs.front().size());
  Matrix gRow(1, targets.front().size());
  for (std::size_t start = 0; start < order.size(); start += batchSize) {
    const std::size_t end = std::min(order.size(), start + batchSize);
    const double invB = 1.0 / static_cast<double>(end - start);
    net.zeroGrad();
    for (std::size_t k = start; k < end; ++k) {
      const Vector& x = inputs[order[k]];
      std::copy(x.begin(), x.end(), xRow.row(0));
      const Matrix& out = net.forwardBatch(xRow);
      const Vector pred(out.row(0), out.row(0) + out.cols());
      lossSum += nn::mseLoss(pred, targets[order[k]]);
      Vector grad = nn::mseGrad(pred, targets[order[k]]);
      for (double& v : grad) v *= invB;
      std::copy(grad.begin(), grad.end(), gRow.row(0));
      net.backwardBatch(gRow);
      ++seen;
    }
    opt.step(net);
    ++stats.batches;
  }
  stats.meanLoss = lossSum / static_cast<double>(seen);
  return stats;
}

TEST(MlpBatch, BatchedTrainingMatchesRowByRowTraining) {
  std::mt19937_64 dataRng(31);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Vector> xs;
  std::vector<Vector> ys;
  for (int i = 0; i < 70; ++i) {  // 70 % 16 != 0: exercises the ragged batch
    const Vector x = {d(dataRng), d(dataRng), d(dataRng)};
    xs.push_back(x);
    ys.push_back({x[0] * x[1], std::tanh(x[2])});
  }
  nn::MlpConfig cfg;
  cfg.layerSizes = {3, 12, 2};
  nn::Mlp netA(cfg, 5);
  nn::Mlp netB(cfg, 5);
  nn::AdamOptimizer optA(3e-3);
  nn::AdamOptimizer optB(3e-3);
  std::mt19937_64 rngA(77);
  std::mt19937_64 rngB(77);
  for (int e = 0; e < 5; ++e) {
    const auto sa = nn::trainEpochMse(netA, optA, xs, ys, 16, rngA);
    const auto sb = refTrainEpochMse(netB, optB, xs, ys, 16, rngB);
    ASSERT_EQ(sa.batches, sb.batches);
    EXPECT_NEAR(sa.meanLoss, sb.meanLoss, 1e-12);
  }
  const Vector pa = netA.getParameters();
  const Vector pb = netB.getParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

TEST(ScalerBatch, MatrixTransformsMatchVectorTransforms) {
  nn::Standardizer s;
  s.fit({{1.0, 10.0, -3.0}, {2.0, 30.0, -1.0}, {4.0, 20.0, 0.5}});
  nn::MinMaxScaler mm({0.0, -1.0, 2.0}, {1.0, 1.0, 8.0});
  std::mt19937_64 rng(9);
  const Matrix x = randomMatrix(13, 3, rng);
  Matrix z, back, zmm;
  s.transform(x, z);
  s.inverse(z, back);
  mm.transform(x, zmm);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const Vector xi(x.row(r), x.row(r) + 3);
    const Vector zi = s.transform(xi);
    const Vector zmmi = mm.transform(xi);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(z(r, c), zi[c], 1e-12);
      EXPECT_NEAR(back(r, c), xi[c], 1e-9);
      EXPECT_NEAR(zmm(r, c), zmmi[c], 1e-12);
    }
  }
}

// ---------- surrogate + planner equivalence ----------

TEST(SurrogateBatch, PredictBatchMatchesPredictAfterTraining) {
  core::SurrogateConfig cfg;
  cfg.hiddenWidth = 24;
  core::SpiceSurrogate sur(4, 3, cfg, 17);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 40; ++i) {
    const Vector x = {d(rng), d(rng), d(rng), d(rng)};
    sur.addSample(x, {x[0] + x[1], x[2] * 2.0 - x[3], std::sin(x[0])});
  }
  sur.train(rng);  // fits both scalers: the full transform chain is exercised

  const std::size_t batch = 50;
  Matrix block(batch, 4);
  for (std::size_t i = 0; i < block.size(); ++i) block.data()[i] = d(rng);
  Matrix preds;
  sur.predictBatch(block, preds);
  ASSERT_EQ(preds.rows(), batch);
  ASSERT_EQ(preds.cols(), 3u);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector xi(block.row(r), block.row(r) + 4);
    const Vector yi = sur.predict(xi);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(preds(r, c), yi[c], 1e-12);
  }
}

core::SizingProblem sphereCsp(double radius) {
  core::SizingProblem p;
  p.name = "sphere";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 101, false},
                               {"y", 0.0, 1.0, 101, false},
                               {"z", 0.0, 1.0, 101, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 1.0 - radius}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.62;
    const double dy = v[1] - 0.34;
    const double dz = v[2] - 0.58;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy + dz * dz)};
    return r;
  };
  return p;
}

/// Golden seeded outcome of the batched trust-region planner. The constants
/// were recorded when the per-sample planner still existed and both paths
/// produced them, with and without -march=native; any change to candidate
/// generation, scoring or selection moves them.
TEST(LocalExplorerBatch, SeededOutcomeMatchesGolden) {
  const auto prob = sphereCsp(0.04);
  const core::ValueFunction value(prob.measurementNames, prob.specs);
  auto eval = [&](const Vector& x) { return prob.evaluate(x, prob.corners[0]); };
  core::LocalExplorerConfig cfg;
  cfg.seed = 29;
  core::LocalExplorer agent(prob.space, value, eval, cfg);
  const core::SearchOutcome out = agent.run(1500);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.iterations, 25u);
  EXPECT_EQ(out.sizes, (Vector{0.63, 0.33, 0.61}));
  EXPECT_EQ(out.bestValue, 0.0);
  EXPECT_EQ(out.trace.radiusHistory.size(), 13u);
  EXPECT_EQ(out.trace.acceptedSteps, 7u);
  EXPECT_EQ(out.trace.rejectedSteps, 5u);
  EXPECT_EQ(out.trace.restarts, 0u);
}

core::SizingProblem multiCornerCsp() {
  core::SizingProblem p;
  p.name = "multi";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 101, false},
                               {"y", 0.0, 1.0, 101, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.9}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 1.0, 125.0},
               {sim::ProcessCorner::kFF, 1.0, -40.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.4;
    const double dy = v[1] - 0.6;
    const double penalty = c.tempC > 100.0 ? 0.02 : 0.0;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy) - penalty};
    return r;
  };
  return p;
}

/// Golden seeded outcome of PvtSearch's pooled (min-over-corners) batched
/// planner, recorded like LocalExplorerBatch.SeededOutcomeMatchesGolden.
TEST(PvtSearchBatch, SeededOutcomeMatchesGolden) {
  const auto prob = multiCornerCsp();
  core::PvtSearchConfig cfg;
  cfg.seed = 21;
  cfg.explorer = core::autoSchedule(prob, cfg.seed);
  core::PvtSearch search(prob, cfg);
  const core::PvtSearchOutcome out = search.run(6000);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.totalSims, 14u);
  EXPECT_EQ(out.sizes, (Vector{0.34, 0.57}));
  EXPECT_EQ(out.cornersActivated, 1u);
}

// ---------- thread pool ----------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineModeHasNoWorkers) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.workerCount(), 0u);
  int sum = 0;
  pool.parallelFor(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  common::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(8,
                       [](std::size_t i) {
                         if (i == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, PerTaskSeedsAreStableAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = common::perTaskSeed(42, i);
    EXPECT_EQ(s, common::perTaskSeed(42, i));  // pure function
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(common::perTaskSeed(42, 0), common::perTaskSeed(43, 0));
}

/// The parallel corner-evaluation pipeline must give identical results for
/// any thread count (results are merged in corner order after the join).
TEST(PvtSearchParallel, ThreadCountDoesNotChangeOutcome) {
  const auto prob = multiCornerCsp();
  core::PvtSearchOutcome serial;
  core::PvtSearchOutcome pooled;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::PvtSearchConfig cfg;
    cfg.strategy = core::PvtStrategy::kBruteForce;  // 3 corners active: real fan-out
    cfg.seed = 33;
    cfg.explorer = core::autoSchedule(prob, cfg.seed);
    cfg.evalThreads = threads;
    core::PvtSearch search(prob, cfg);
    (threads == 1 ? serial : pooled) = search.run(5000);
  }
  EXPECT_EQ(pooled.solved, serial.solved);
  EXPECT_EQ(pooled.totalSims, serial.totalSims);
  EXPECT_EQ(pooled.sizes, serial.sizes);
  EXPECT_EQ(pooled.ledger.totalBlocks(), serial.ledger.totalBlocks());
  ASSERT_EQ(pooled.cornerEvals.size(), serial.cornerEvals.size());
  for (std::size_t i = 0; i < pooled.cornerEvals.size(); ++i) {
    EXPECT_EQ(pooled.cornerEvals[i].ok, serial.cornerEvals[i].ok);
    EXPECT_EQ(pooled.cornerEvals[i].measurements,
              serial.cornerEvals[i].measurements);
  }
}

}  // namespace
}  // namespace trdse
