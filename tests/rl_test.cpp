#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/distribution.hpp"
#include "rl/a2c.hpp"
#include "rl/actor_critic.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"
#include "rl/trpo.hpp"

namespace trdse::rl {
namespace {

/// 1-D toy problem: feasible band around x = 0.8.
core::SizingProblem bandProblem() {
  core::SizingProblem p;
  p.name = "band";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 65, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.93}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = {1.0 - std::abs(v[0] - 0.8)};
    return r;
  };
  return p;
}

TEST(SizingEnv, ObservationShape) {
  const auto prob = bandProblem();
  SizingEnv env(prob, {}, 1);
  const auto obs = env.reset();
  EXPECT_EQ(obs.size(), env.observationDim());
  EXPECT_EQ(env.observationDim(), 1u + 2u * 1u);
  EXPECT_EQ(env.actionHeads(), 1u);
}

TEST(SizingEnv, ActionsMoveParameters) {
  const auto prob = bandProblem();
  EnvConfig cfg;
  cfg.episodeLength = 1000;
  SizingEnv env(prob, cfg, 2);
  env.reset();
  const double x0 = env.currentSizes()[0];
  env.step({2});  // increment
  const double x1 = env.currentSizes()[0];
  EXPECT_GT(x1, x0);
  env.step({0});  // decrement back
  EXPECT_NEAR(env.currentSizes()[0], x0, 1e-12);
  env.step({1});  // hold
  EXPECT_NEAR(env.currentSizes()[0], x0, 1e-12);
}

TEST(SizingEnv, ClampsAtGridEdges) {
  const auto prob = bandProblem();
  SizingEnv env(prob, {}, 3);
  env.reset();
  for (int i = 0; i < 100; ++i) env.step({0});
  EXPECT_NEAR(env.currentSizes()[0], 0.0, 1e-12);
}

TEST(SizingEnv, SolveGivesBonusAndTerminates) {
  const auto prob = bandProblem();
  EnvConfig cfg;
  cfg.episodeLength = 500;
  SizingEnv env(prob, cfg, 4);
  env.reset();
  StepResult last;
  for (int i = 0; i < 500; ++i) {
    // March toward 0.8 from wherever we started.
    const double x = env.currentSizes()[0];
    last = env.step({x < 0.8 ? std::size_t{2} : std::size_t{0}});
    if (last.done) break;
  }
  EXPECT_TRUE(last.solved);
  EXPECT_GT(last.reward, 5.0);  // includes the solve bonus
  EXPECT_GT(env.simsAtFirstSolve(), 0u);
}

TEST(SizingEnv, CountsSimulations) {
  const auto prob = bandProblem();
  SizingEnv env(prob, {}, 5);
  env.reset();
  env.step({1});
  env.step({1});
  EXPECT_EQ(env.simulationsUsed(), 3u);  // reset + 2 steps
}

/// Per-head softmax and log-softmax tables of a logits batch.
struct Tables {
  linalg::Matrix sm;
  linalg::Matrix lsm;
};

Tables tablesOf(const linalg::Matrix& logits) {
  Tables t;
  nn::softmaxSegments(logits, 3, t.sm);
  nn::logSoftmaxSegments(logits, 3, t.lsm);
  return t;
}

/// Central finite-difference check of an analytic d f / d logits matrix.
void expectLogitGradient(const linalg::Matrix& logits,
                         const std::function<double(const linalg::Matrix&)>& f,
                         const linalg::Matrix& analytic) {
  constexpr double kEps = 1e-6;
  ASSERT_EQ(analytic.rows(), logits.rows());
  ASSERT_EQ(analytic.cols(), logits.cols());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    linalg::Matrix plus = logits;
    linalg::Matrix minus = logits;
    plus.data()[i] += kEps;
    minus.data()[i] -= kEps;
    EXPECT_NEAR(analytic.data()[i], (f(plus) - f(minus)) / (2 * kEps), 1e-8)
        << "logit " << i;
  }
}

// Two samples x two 3-way heads; row 1 is deliberately peaked.
const linalg::Matrix kLogits{{0.1, 0.5, -0.2, 1.0, 0.0, -1.0},
                             {2.5, -1.5, 0.3, -0.4, 0.9, 0.2}};
const std::vector<std::vector<std::size_t>> kActions{{1, 0}, {2, 1}};

TEST(ActorCritic, JointLogProbConsistent) {
  const Tables t = tablesOf(kLogits);
  linalg::Vector lp;
  jointLogProbRowsFromTable(t.lsm, kActions, 3, lp);
  ASSERT_EQ(lp.size(), 2u);
  for (double v : lp) EXPECT_LT(v, 0.0);
  linalg::Matrix g;
  jointLogProbGradRowsFromTable(t.sm, kActions, 3, g);
  for (std::size_t r = 0; r < 2; ++r) {
    // Gradient sums to zero per head; the chosen action's entry is positive.
    EXPECT_NEAR(g(r, 0) + g(r, 1) + g(r, 2), 0.0, 1e-12);
    EXPECT_NEAR(g(r, 3) + g(r, 4) + g(r, 5), 0.0, 1e-12);
    EXPECT_GT(g(r, kActions[r][0]), 0.0);
    EXPECT_GT(g(r, 3 + kActions[r][1]), 0.0);
  }
  // d(sum of joint log-probs)/d logits, numerically.
  expectLogitGradient(
      kLogits,
      [](const linalg::Matrix& l) {
        linalg::Vector v;
        jointLogProbRowsFromTable(tablesOf(l).lsm, kActions, 3, v);
        return v[0] + v[1];
      },
      g);
}

TEST(ActorCritic, KlZeroOnIdenticalLogits) {
  const Tables t = tablesOf(kLogits);
  EXPECT_NEAR(sumJointKlRowsFromTables(t.lsm, t.lsm, 3), 0.0, 1e-12);
  linalg::Matrix g;
  jointKlGradRowsFromTables(t.sm, t.sm, g);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g.data()[i], 0.0);

  // Away from the old policy the KL is positive and its gradient in the new
  // logits is softmax(new) - softmax(old).
  linalg::Matrix moved = kLogits;
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved.data()[i] += 0.3 * std::sin(static_cast<double>(i));
  const Tables tm = tablesOf(moved);
  EXPECT_GT(sumJointKlRowsFromTables(t.lsm, tm.lsm, 3), 0.0);
  jointKlGradRowsFromTables(t.sm, tm.sm, g);
  expectLogitGradient(
      moved,
      [&](const linalg::Matrix& l) {
        return sumJointKlRowsFromTables(t.lsm, tablesOf(l).lsm, 3);
      },
      g);
}

TEST(ActorCritic, EntropyGradMatchesFiniteDifference) {
  const auto entropySum = [](const linalg::Matrix& l) {
    const linalg::Matrix lsm = tablesOf(l).lsm;
    double h = 0.0;
    for (std::size_t i = 0; i < lsm.size(); ++i)
      h -= std::exp(lsm.data()[i]) * lsm.data()[i];
    return h;
  };
  linalg::Matrix g;
  jointEntropyGradRowsFromTable(tablesOf(kLogits).lsm, 3, g);
  expectLogitGradient(kLogits, entropySum, g);
}

TEST(Rollout, GaeMatchesHandComputation) {
  RolloutBuffer buf;
  // Two-step episode, gamma = 0.5, lambda = 1 -> plain discounted returns.
  Transition t1;
  t1.reward = 1.0;
  t1.valueEstimate = 0.0;
  t1.done = false;
  Transition t2;
  t2.reward = 2.0;
  t2.valueEstimate = 0.0;
  t2.done = true;
  buf.transitions = {t1, t2};
  buf.bootstrapValue = 99.0;  // ignored: last transition done
  const auto adv = computeGae(buf, 0.5, 1.0);
  EXPECT_NEAR(adv.returns[1], 2.0, 1e-12);
  EXPECT_NEAR(adv.returns[0], 1.0 + 0.5 * 2.0, 1e-12);
}

TEST(Rollout, BootstrapUsedWhenNotDone) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 1.0;
  t.valueEstimate = 0.0;
  t.done = false;
  buf.transitions = {t};
  buf.bootstrapValue = 10.0;
  const auto adv = computeGae(buf, 0.9, 1.0);
  EXPECT_NEAR(adv.returns[0], 1.0 + 0.9 * 10.0, 1e-12);
}

TEST(Rollout, NormalizeAdvantages) {
  std::vector<double> adv = {1.0, 2.0, 3.0, 4.0};
  normalizeAdvantages(adv);
  double mean = 0.0;
  for (double a : adv) mean += a;
  EXPECT_NEAR(mean, 0.0, 1e-9);
}

// End-to-end sanity: each algorithm should solve the easy 1-D band problem
// within a modest simulation budget (the random walk alone would too, but
// much less reliably; what we verify is plumbing, not superiority).
class RlAlgoTest : public ::testing::TestWithParam<int> {};

TEST_P(RlAlgoTest, SolvesEasyBandProblem) {
  const auto prob = bandProblem();
  const int algo = GetParam();
  bool solved = false;
  for (std::uint64_t seed = 1; seed <= 3 && !solved; ++seed) {
    if (algo == 0) {
      A2cConfig cfg;
      cfg.seed = seed;
      cfg.env.episodeLength = 30;
      solved = trainA2c(prob, cfg, 4000).solved;
    } else if (algo == 1) {
      PpoConfig cfg;
      cfg.seed = seed;
      cfg.horizon = 64;
      cfg.env.episodeLength = 30;
      solved = trainPpo(prob, cfg, 4000).solved;
    } else {
      TrpoConfig cfg;
      cfg.seed = seed;
      cfg.horizon = 64;
      cfg.env.episodeLength = 30;
      solved = trainTrpo(prob, cfg, 4000).solved;
    }
  }
  EXPECT_TRUE(solved);
}

INSTANTIATE_TEST_SUITE_P(Algos, RlAlgoTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace trdse::rl
