// Oracle and determinism tests for the batched multi-env RL training engine:
// the segment softmax kernels and the row-batched joint log-prob/entropy/KL
// helpers against their per-head closed forms, each A2C/PPO update against
// the finite-difference gradient of its loss, PPO's shuffled mini-batching
// against a replay of single-batch steps, TRPO's trust-region contract and
// Fisher model, seeded trainer determinism, and thread-count invariance of
// parallel rollout collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <utility>

#include "nn/distribution.hpp"
#include "rl/a2c.hpp"
#include "rl/actor_critic.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/trpo.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr std::size_t kApH = SizingEnv::kActionsPerHead;

Matrix randomLogits(std::size_t rows, std::size_t cols, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-2.5, 2.5);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = d(rng);
  return m;
}

// ---------- distribution / actor-critic batched kernels ----------

TEST(DistributionBatch, SegmentOpsMatchScalarBitwise) {
  std::mt19937_64 rng(3);
  const std::size_t heads = 5;
  const Matrix logits = randomLogits(17, heads * kApH, rng);
  Matrix sm, lsm;
  nn::softmaxSegments(logits, kApH, sm);
  nn::logSoftmaxSegments(logits, kApH, lsm);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    for (std::size_t h = 0; h < heads; ++h) {
      Vector hl(logits.row(r) + h * kApH, logits.row(r) + (h + 1) * kApH);
      const Vector p = nn::softmax(hl);
      const Vector lp = nn::logSoftmax(hl);
      for (std::size_t a = 0; a < kApH; ++a) {
        EXPECT_EQ(sm(r, h * kApH + a), p[a]);
        EXPECT_EQ(lsm(r, h * kApH + a), lp[a]);
      }
    }
  }
}

/// The table helpers against their per-head closed forms, evaluated with the
/// per-vector softmax/log-softmax on every (row, head) of a 23-row batch.
TEST(ActorCriticBatch, TableRowOpsMatchPerHeadClosedForms) {
  std::mt19937_64 rng(7);
  const std::size_t heads = 4;
  const std::size_t n = 23;
  const Matrix logits = randomLogits(n, heads * kApH, rng);
  const Matrix oldLogits = randomLogits(n, heads * kApH, rng);
  std::uniform_int_distribution<std::size_t> act(0, kApH - 1);
  std::vector<std::vector<std::size_t>> actions(n);
  for (auto& a : actions) {
    a.resize(heads);
    for (auto& v : a) v = act(rng);
  }

  Matrix sm, lsm, oldSm, oldLsm;
  nn::softmaxSegments(logits, kApH, sm);
  nn::logSoftmaxSegments(logits, kApH, lsm);
  nn::softmaxSegments(oldLogits, kApH, oldSm);
  nn::logSoftmaxSegments(oldLogits, kApH, oldLsm);
  Vector lps;
  Matrix lpg, entg, klg;
  jointLogProbRowsFromTable(lsm, actions, kApH, lps);
  jointLogProbGradRowsFromTable(sm, actions, kApH, lpg);
  jointEntropyGradRowsFromTable(lsm, kApH, entg);
  jointKlGradRowsFromTables(oldSm, sm, klg);
  const double klSum = sumJointKlRowsFromTables(oldLsm, lsm, kApH);

  double refKlSum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double refLp = 0.0;
    for (std::size_t h = 0; h < heads; ++h) {
      const Vector hl(logits.row(r) + h * kApH, logits.row(r) + (h + 1) * kApH);
      const Vector ho(oldLogits.row(r) + h * kApH,
                      oldLogits.row(r) + (h + 1) * kApH);
      const Vector p = nn::softmax(hl);
      const Vector lp = nn::logSoftmax(hl);
      const Vector po = nn::softmax(ho);
      const Vector lpo = nn::logSoftmax(ho);
      refLp += lp[actions[r][h]];
      const double ent = nn::categoricalEntropy(hl);
      for (std::size_t a = 0; a < kApH; ++a) {
        const std::size_t j = h * kApH + a;
        const double onehot = a == actions[r][h] ? 1.0 : 0.0;
        EXPECT_NEAR(lpg(r, j), onehot - p[a], 1e-15);
        EXPECT_NEAR(entg(r, j), -p[a] * (lp[a] + ent), 1e-15);
        EXPECT_EQ(klg(r, j), p[a] - po[a]);
        refKlSum += po[a] * (lpo[a] - lp[a]);
      }
    }
    EXPECT_EQ(lps[r], refLp);
  }
  EXPECT_NEAR(klSum, refKlSum, 1e-12);
}

// ---------- update oracles ----------

/// Synthetic flattened rollout with the statistics the updates expect
/// (normalized advantages, behavior log-probs near uniform).
FlatRollout syntheticRollout(std::size_t n, std::size_t obsDim,
                             std::size_t heads, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> act(0, kApH - 1);
  FlatRollout f;
  f.observations.resize(n, obsDim);
  for (std::size_t i = 0; i < f.observations.size(); ++i)
    f.observations.data()[i] = d(rng);
  f.actions.resize(n);
  for (auto& a : f.actions) {
    a.resize(heads);
    for (auto& v : a) v = act(rng);
  }
  f.logProbs.resize(n);
  f.advantages.resize(n);
  f.returns.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.logProbs[i] =
        -1.0986 * static_cast<double>(heads) + 0.1 * d(rng);  // ~uniform
    f.advantages[i] = d(rng);
    f.returns[i] = 2.0 * d(rng);
  }
  normalizeAdvantages(f.advantages);
  return f;
}

/// Joint log-prob and summed per-head entropy of sample i's recorded action,
/// from single-row Mlp::predict and the per-vector distribution functions.
struct RowPolicy {
  double logProb = 0.0;
  double entropy = 0.0;
};

RowPolicy rowPolicy(const nn::Mlp& policy, const FlatRollout& data,
                    std::size_t i) {
  const double* o = data.observations.row(i);
  const Vector logits =
      policy.predict(Vector(o, o + data.observations.cols()));
  RowPolicy rp;
  for (std::size_t h = 0; h < data.actions[i].size(); ++h) {
    const Vector hl = headLogits(logits, h, kApH);
    rp.logProb += nn::logSoftmax(hl)[data.actions[i][h]];
    rp.entropy += nn::categoricalEntropy(hl);
  }
  return rp;
}

/// Mean critic regression loss (V(s) - R)^2 over the rollout.
double criticLoss(const nn::Mlp& critic, const FlatRollout& data) {
  double s = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double* o = data.observations.row(i);
    const double v =
        critic.predict(Vector(o, o + data.observations.cols()))[0];
    s += (v - data.returns[i]) * (v - data.returns[i]);
  }
  return s / static_cast<double>(data.size());
}

/// Central finite-difference check of `grad` (flat parameter layout) against
/// `loss` around `net`'s current parameters, on every `stride`-th parameter.
void expectGradientOfLoss(nn::Mlp& net, const Vector& grad,
                          const std::function<double(const nn::Mlp&)>& loss,
                          std::size_t stride) {
  constexpr double kEps = 1e-6;
  const Vector p0 = net.getParameters();
  ASSERT_EQ(grad.size(), p0.size());
  double maxAbs = 0.0;
  for (double g : grad) maxAbs = std::max(maxAbs, std::abs(g));
  ASSERT_GT(maxAbs, 1e-6) << "degenerate gradient: the oracle would be vacuous";
  for (std::size_t i = 0; i < p0.size(); i += stride) {
    Vector p = p0;
    p[i] += kEps;
    net.setParameters(p);
    const double plus = loss(net);
    p[i] -= 2 * kEps;
    net.setParameters(p);
    const double minus = loss(net);
    const double numeric = (plus - minus) / (2 * kEps);
    EXPECT_NEAR(grad[i], numeric, 1e-7 + 1e-6 * std::abs(numeric))
        << "param " << i;
  }
  net.setParameters(p0);
}

/// Plain SGD at lr = 1 makes one optimizer step equal to minus the gradient
/// it consumed: theta_after = theta_before - g.
Vector stepGradient(const Vector& before, const Vector& after) {
  Vector g(before.size());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = before[i] - after[i];
  return g;
}

/// A2C's update descends on mean -(A log pi + beta H) for the policy and on
/// mean (V - R)^2 for the critic: with gradient clipping disabled, the step
/// an lr = 1 SGD optimizer takes must equal the finite-difference gradient
/// of those losses, recomputed from Mlp::predict.
TEST(RlUpdateOracle, A2cStepIsGradientOfItsLoss) {
  const std::size_t heads = 6;
  const std::size_t obsDim = 14;
  A2cConfig cfg;
  cfg.hidden = 32;
  cfg.maxGradNorm = 1e30;
  const FlatRollout data = syntheticRollout(48, obsDim, heads, 101);

  nn::Mlp policy = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 5);
  nn::Mlp critic = makeValueNet(obsDim, cfg.hidden, 6);
  const Vector theta0 = policy.getParameters();
  const Vector phi0 = critic.getParameters();
  nn::SgdOptimizer policyOpt(1.0);
  nn::SgdOptimizer criticOpt(1.0);
  a2cUpdateBatched(policy, critic, policyOpt, criticOpt, data, cfg);
  const Vector gPolicy = stepGradient(theta0, policy.getParameters());
  const Vector gCritic = stepGradient(phi0, critic.getParameters());
  policy.setParameters(theta0);
  critic.setParameters(phi0);

  expectGradientOfLoss(
      policy, gPolicy,
      [&](const nn::Mlp& net) {
        double s = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
          const RowPolicy rp = rowPolicy(net, data, i);
          s -= data.advantages[i] * rp.logProb + cfg.entropyCoeff * rp.entropy;
        }
        return s / static_cast<double>(data.size());
      },
      7);
  expectGradientOfLoss(
      critic, gCritic,
      [&](const nn::Mlp& net) { return criticLoss(net, data); }, 5);
}

/// PPO's policy loss is mean -(min(r A, clip(r, 1 - eps, 1 + eps) A) + beta H)
/// with r = exp(log pi - log pi_behavior). One epoch over one mini-batch that
/// spans the rollout, with gradient clipping disabled and lr = 1 SGD, makes
/// the step the gradient of that loss. The mini-batch is ragged (minibatch
/// 100 > 70 rows), so the mean must divide by the rows gathered, not by
/// cfg.minibatch. Behavior log-probs are the policy's own plus noise, so
/// some ratios fall outside the clip band and some inside.
TEST(RlUpdateOracle, PpoStepIsGradientOfItsClippedLoss) {
  const std::size_t heads = 5;
  const std::size_t obsDim = 12;
  PpoConfig cfg;
  cfg.hidden = 32;
  cfg.epochs = 1;
  cfg.minibatch = 100;
  cfg.maxGradNorm = 1e30;
  FlatRollout data = syntheticRollout(70, obsDim, heads, 202);

  nn::Mlp policy = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 9);
  nn::Mlp critic = makeValueNet(obsDim, cfg.hidden, 10);
  std::mt19937_64 noiseRng(17);
  std::uniform_real_distribution<double> noise(-0.4, 0.4);
  std::size_t clipped = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.logProbs[i] = rowPolicy(policy, data, i).logProb + noise(noiseRng);
    const double r = std::exp(rowPolicy(policy, data, i).logProb -
                              data.logProbs[i]);
    if ((data.advantages[i] > 0.0 && r > 1.0 + cfg.clipRatio) ||
        (data.advantages[i] < 0.0 && r < 1.0 - cfg.clipRatio))
      ++clipped;
  }
  ASSERT_GT(clipped, 0u);
  ASSERT_LT(clipped, data.size());

  const Vector theta0 = policy.getParameters();
  const Vector phi0 = critic.getParameters();
  nn::SgdOptimizer policyOpt(1.0);
  nn::SgdOptimizer criticOpt(1.0);
  std::mt19937_64 shuffleRng(55);
  ppoUpdateBatched(policy, critic, policyOpt, criticOpt, data, cfg,
                   shuffleRng);
  const Vector gPolicy = stepGradient(theta0, policy.getParameters());
  const Vector gCritic = stepGradient(phi0, critic.getParameters());
  policy.setParameters(theta0);
  critic.setParameters(phi0);

  expectGradientOfLoss(
      policy, gPolicy,
      [&](const nn::Mlp& net) {
        double s = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
          const RowPolicy rp = rowPolicy(net, data, i);
          const double r = std::exp(rp.logProb - data.logProbs[i]);
          const double a = data.advantages[i];
          const double rc =
              std::clamp(r, 1.0 - cfg.clipRatio, 1.0 + cfg.clipRatio);
          s -= std::min(r * a, rc * a) + cfg.entropyCoeff * rp.entropy;
        }
        return s / static_cast<double>(data.size());
      },
      7);
  expectGradientOfLoss(
      critic, gCritic,
      [&](const nn::Mlp& net) { return criticLoss(net, data); }, 5);
}

/// Rows `rows` of `data`, in that order.
FlatRollout gatherRows(const FlatRollout& data,
                       const std::vector<std::size_t>& rows) {
  const std::size_t obsDim = data.observations.cols();
  FlatRollout sub;
  sub.observations.resize(rows.size(), obsDim);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t i = rows[r];
    std::copy(data.observations.row(i), data.observations.row(i) + obsDim,
              sub.observations.row(r));
    sub.actions.push_back(data.actions[i]);
    sub.logProbs.push_back(data.logProbs[i]);
    sub.advantages.push_back(data.advantages[i]);
    sub.returns.push_back(data.returns[i]);
  }
  return sub;
}

/// Several epochs of shuffled, ragged mini-batches (70 = 4 x 16 + 6) are the
/// sequence of one-mini-batch updates on the rows each mini-batch gathers:
/// replaying the shuffle stream and running ppoUpdateBatched on each gathered
/// sub-rollout as a single full batch (the step the oracle above pins to the
/// loss gradient), with the same Adam optimizers, must land on the same
/// parameters. Gradient clipping is off so a per-mini-batch scale error is
/// not renormalized away; a wrong scale on the ragged batch or a gather that
/// ignores the shuffle order moves the parameters. The update consumes the
/// shuffle stream exactly once per epoch (the checkpointed RNG state depends
/// on it), and a rerun from the same state reproduces it bitwise.
TEST(RlUpdateOracle, PpoEpochsAreSequencesOfMiniBatchSteps) {
  const std::size_t heads = 5;
  const std::size_t obsDim = 12;
  PpoConfig cfg;
  cfg.hidden = 32;
  cfg.epochs = 3;
  cfg.minibatch = 16;
  cfg.maxGradNorm = 1e30;
  const FlatRollout data = syntheticRollout(70, obsDim, heads, 202);

  const auto update = [&](std::mt19937_64& rng) {
    nn::Mlp policy = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 9);
    nn::Mlp critic = makeValueNet(obsDim, cfg.hidden, 10);
    nn::AdamOptimizer policyOpt(cfg.learningRate);
    nn::AdamOptimizer criticOpt(cfg.valueLearningRate);
    ppoUpdateBatched(policy, critic, policyOpt, criticOpt, data, cfg, rng);
    return std::make_pair(policy.getParameters(), critic.getParameters());
  };
  std::mt19937_64 rng(55);
  const auto [policyParams, criticParams] = update(rng);
  std::mt19937_64 rerun(55);
  EXPECT_EQ(update(rerun), std::make_pair(policyParams, criticParams));

  nn::Mlp refPolicy = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 9);
  nn::Mlp refCritic = makeValueNet(obsDim, cfg.hidden, 10);
  nn::AdamOptimizer refPolicyOpt(cfg.learningRate);
  nn::AdamOptimizer refCriticOpt(cfg.valueLearningRate);
  std::mt19937_64 replay(55);
  PpoConfig single = cfg;
  single.epochs = 1;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::size_t steps = 0;
  for (std::size_t e = 0; e < cfg.epochs; ++e) {
    std::shuffle(order.begin(), order.end(), replay);
    for (std::size_t start = 0; start < order.size(); start += cfg.minibatch) {
      const std::size_t end = std::min(order.size(), start + cfg.minibatch);
      const FlatRollout mb = gatherRows(
          data, std::vector<std::size_t>(order.begin() + start,
                                         order.begin() + end));
      single.minibatch = mb.size();
      std::mt19937_64 unused(0);  // one batch: its row order only
      ppoUpdateBatched(refPolicy, refCritic, refPolicyOpt, refCriticOpt, mb,
                       single, unused);
      ++steps;
    }
  }
  EXPECT_EQ(steps, 15u);
  EXPECT_EQ(rng, replay);  // one shuffle per epoch, nothing else drawn

  const auto expectClose = [](const Vector& got, const Vector& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 1e-12 + 1e-9 * std::abs(want[i]))
          << "param " << i;
  };
  expectClose(policyParams, refPolicy.getParameters());
  expectClose(criticParams, refCritic.getParameters());
}

/// Mean KL(old || current) and surrogate E[r A] over the rollout, recomputed
/// from Mlp::predict against the old policy's logits.
struct TrpoObjective {
  double kl = 0.0;
  double surrogate = 0.0;
};

/// Per-row logits of `policy` on the rollout's observations.
std::vector<Vector> logitsOf(const nn::Mlp& policy, const FlatRollout& data) {
  std::vector<Vector> out;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double* o = data.observations.row(i);
    out.push_back(policy.predict(Vector(o, o + data.observations.cols())));
  }
  return out;
}

TrpoObjective trpoObjective(const nn::Mlp& policy, const FlatRollout& data,
                            const std::vector<Vector>& oldLogits) {
  TrpoObjective t;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double* o = data.observations.row(i);
    const Vector logits =
        policy.predict(Vector(o, o + data.observations.cols()));
    const std::size_t heads = data.actions[i].size();
    double lp = 0.0;
    double rowKl = 0.0;
    for (std::size_t h = 0; h < heads; ++h) {
      const Vector lq = nn::logSoftmax(headLogits(logits, h, kApH));
      const Vector lpOld = nn::logSoftmax(headLogits(oldLogits[i], h, kApH));
      double headKl = 0.0;
      for (std::size_t a = 0; a < kApH; ++a)
        headKl += std::exp(lpOld[a]) * (lpOld[a] - lq[a]);
      rowKl += headKl;
      lp += lq[data.actions[i][h]];
    }
    t.kl += rowKl;
    t.surrogate += std::exp(lp - data.logProbs[i]) * data.advantages[i];
  }
  t.kl /= static_cast<double>(data.size());
  t.surrogate /= static_cast<double>(data.size());
  return t;
}

/// TRPO's trust-region contract, checked from outside: an accepted step stays
/// within 1.5 * maxKl of the old policy and strictly raises the surrogate; a
/// rejected (or skipped) update leaves the policy bitwise unchanged.
TEST(RlUpdateOracle, TrpoAcceptedStepsRespectTheTrustRegion) {
  const std::size_t heads = 4;
  const std::size_t obsDim = 10;
  TrpoConfig cfg;
  cfg.hidden = 24;
  nn::Mlp policy = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 13);
  nn::Mlp critic = makeValueNet(obsDim, cfg.hidden, 14);
  nn::AdamOptimizer criticOpt(cfg.valueLearningRate);

  std::size_t accepted = 0;
  for (std::uint64_t seed = 303; seed < 309; ++seed) {
    const FlatRollout data = syntheticRollout(64, obsDim, heads, seed);
    const std::vector<Vector> oldLogits = logitsOf(policy, data);
    const Vector theta0 = policy.getParameters();
    const TrpoObjective before = trpoObjective(policy, data, oldLogits);
    EXPECT_EQ(before.kl, 0.0);
    if (trpoUpdate(policy, critic, criticOpt, data, cfg)) {
      ++accepted;
      const TrpoObjective after = trpoObjective(policy, data, oldLogits);
      EXPECT_GT(after.kl, 0.0) << "seed " << seed;
      EXPECT_LE(after.kl, 1.5 * cfg.maxKl) << "seed " << seed;
      EXPECT_GT(after.surrogate, before.surrogate) << "seed " << seed;
    } else {
      EXPECT_EQ(policy.getParameters(), theta0) << "seed " << seed;
    }
  }
  EXPECT_GT(accepted, 0u);

  // A line search with no attempts can never accept: the policy must come
  // back bitwise, even though the CG step was computed.
  TrpoConfig noSearch = cfg;
  noSearch.lineSearchSteps = 0;
  const FlatRollout data = syntheticRollout(64, obsDim, heads, 401);
  const Vector theta0 = policy.getParameters();
  EXPECT_FALSE(trpoUpdate(policy, critic, criticOpt, data, noSearch));
  EXPECT_EQ(policy.getParameters(), theta0);

  // Zero advantages give a zero surrogate gradient: the update is skipped.
  FlatRollout flat = data;
  std::fill(flat.advantages.begin(), flat.advantages.end(), 0.0);
  EXPECT_FALSE(trpoUpdate(policy, critic, criticOpt, flat, cfg));
  EXPECT_EQ(policy.getParameters(), theta0);
}

/// With a single line-search attempt, an accepted step is the full natural
/// step s, which trpoUpdate scales so that its own Fisher model puts it on
/// the trust-region boundary: s'(F + damping I)s / 2 = maxKl. The true mean
/// KL(old || new) equals s'Fs / 2 to second order, so KL + damping |s|^2 / 2
/// must come out near maxKl; a KL gradient with the wrong scale or rows
/// inside the Fisher-vector product moves it away. With one regression epoch
/// and lr = 1 SGD, the critic step must be the gradient of mean (V - R)^2.
TEST(RlUpdateOracle, TrpoFullStepMeetsItsFisherModelAndCriticFollowsGradient) {
  const std::size_t heads = 4;
  const std::size_t obsDim = 10;
  TrpoConfig cfg;
  cfg.hidden = 24;
  cfg.lineSearchSteps = 1;
  cfg.valueEpochs = 1;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 501; seed < 505; ++seed) {
    nn::Mlp policy = makePolicyNet(obsDim, heads, kApH, cfg.hidden, seed);
    nn::Mlp critic = makeValueNet(obsDim, cfg.hidden, seed + 100);
    const FlatRollout data = syntheticRollout(64, obsDim, heads, seed);
    const std::vector<Vector> oldLogits = logitsOf(policy, data);
    const Vector theta0 = policy.getParameters();
    const Vector phi0 = critic.getParameters();
    nn::SgdOptimizer criticOpt(1.0);
    const bool ok = trpoUpdate(policy, critic, criticOpt, data, cfg);

    const Vector gCritic = stepGradient(phi0, critic.getParameters());
    critic.setParameters(phi0);
    expectGradientOfLoss(
        critic, gCritic,
        [&](const nn::Mlp& net) { return criticLoss(net, data); }, 5);

    if (!ok) continue;
    ++accepted;
    const Vector s = stepGradient(theta0, policy.getParameters());
    const double model = trpoObjective(policy, data, oldLogits).kl +
                         0.5 * cfg.cgDamping * linalg::dot(s, s);
    EXPECT_NEAR(model, cfg.maxKl, 0.1 * cfg.maxKl) << "seed " << seed;
  }
  EXPECT_GT(accepted, 0u);
}

// ---------- trainer determinism ----------

/// 1-D toy problem: feasible band around x = 0.8.
core::SizingProblem bandProblem() {
  core::SizingProblem p;
  p.name = "band";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 65, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.93}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = {1.0 - std::abs(v[0] - 0.8)};
    return r;
  };
  return p;
}

void expectOutcomesEqual(const RlTrainOutcome& a, const RlTrainOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.totalSimulations, b.totalSimulations);
  EXPECT_EQ(a.simulationsToSolve, b.simulationsToSolve);
  EXPECT_EQ(a.bestEpisodeReturn, b.bestEpisodeReturn);
}

// ---------- parallel rollout collection ----------

core::SizingProblem bowlProblem() {
  core::SizingProblem p;
  p.name = "bowl";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 33, false},
                               {"y", 0.0, 1.0, 33, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.95}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.3;
    const double dy = v[1] - 0.7;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy)};
    return r;
  };
  return p;
}

void expectBuffersBitwiseEqual(const std::vector<RolloutBuffer>& a,
                               const std::vector<RolloutBuffer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].size(), b[e].size()) << "env " << e;
    EXPECT_EQ(a[e].bootstrapValue, b[e].bootstrapValue);
    for (std::size_t i = 0; i < a[e].size(); ++i) {
      const Transition& ta = a[e].transitions[i];
      const Transition& tb = b[e].transitions[i];
      EXPECT_EQ(ta.observation, tb.observation);
      EXPECT_EQ(ta.actions, tb.actions);
      EXPECT_EQ(ta.reward, tb.reward);
      EXPECT_EQ(ta.valueEstimate, tb.valueEstimate);
      EXPECT_EQ(ta.logProb, tb.logProb);
      EXPECT_EQ(ta.done, tb.done);
    }
  }
}

/// The tentpole determinism guarantee: rollout collection fans N envs across
/// the pool, but the merged trajectories are identical for every thread
/// count (per-env RNG streams + env-order merge).
TEST(ParallelRollout, ThreadCountDoesNotChangeTrajectories) {
  const auto prob = bowlProblem();
  EnvConfig envCfg;
  envCfg.episodeLength = 12;
  const std::size_t numEnvs = 4;

  const std::size_t obsDim = 2 + 2 * 1;
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 24, 71);
  nn::Mlp critic = makeValueNet(obsDim, 24, 72);

  std::vector<RolloutBuffer> serial, pooled;
  std::size_t simsSerial = 0, simsPooled = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelRolloutCollector collector(prob, envCfg, numEnvs, threads,
                                       /*seed=*/17, /*rngSalt=*/7);
    auto& buffers = threads == 1 ? serial : pooled;
    for (int round = 0; round < 3; ++round)
      collector.collect(policy, critic, 24, 100000, buffers);
    (threads == 1 ? simsSerial : simsPooled) = collector.totalSimulations();
  }
  EXPECT_EQ(simsSerial, simsPooled);
  expectBuffersBitwiseEqual(serial, pooled);
}

TEST(ParallelRollout, EnvStreamsAreIndependent) {
  const auto prob = bowlProblem();
  EnvConfig envCfg;
  envCfg.episodeLength = 12;
  const std::size_t obsDim = 2 + 2 * 1;
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 24, 71);
  nn::Mlp critic = makeValueNet(obsDim, 24, 72);

  ParallelRolloutCollector collector(prob, envCfg, 3, 1, 17, 7);
  std::vector<RolloutBuffer> buffers;
  collector.collect(policy, critic, 16, 100000, buffers);
  ASSERT_EQ(buffers.size(), 3u);
  // Different seeds must give different start points / trajectories.
  EXPECT_NE(buffers[0].transitions.front().observation,
            buffers[1].transitions.front().observation);
  EXPECT_NE(buffers[1].transitions.front().observation,
            buffers[2].transitions.front().observation);
}

TEST(ParallelRollout, MultiEnvTrainingIsDeterministic) {
  const auto prob = bandProblem();
  {
    A2cConfig cfg;
    cfg.seed = 5;
    cfg.env.episodeLength = 16;
    cfg.numEnvs = 3;
    cfg.rolloutThreads = 2;
    expectOutcomesEqual(trainA2c(prob, cfg, 400), trainA2c(prob, cfg, 400));
  }
  {
    PpoConfig cfg;
    cfg.seed = 5;
    cfg.horizon = 32;
    cfg.env.episodeLength = 16;
    cfg.numEnvs = 3;
    cfg.rolloutThreads = 2;
    expectOutcomesEqual(trainPpo(prob, cfg, 400), trainPpo(prob, cfg, 400));
  }
  {
    TrpoConfig cfg;
    cfg.seed = 5;
    cfg.horizon = 32;
    cfg.env.episodeLength = 16;
    cfg.numEnvs = 3;
    cfg.rolloutThreads = 2;
    expectOutcomesEqual(trainTrpo(prob, cfg, 400), trainTrpo(prob, cfg, 400));
  }
}

TEST(ParallelRollout, MultiEnvOutcomeIndependentOfThreadCount) {
  const auto prob = bandProblem();
  A2cConfig a, b;
  a.seed = b.seed = 9;
  a.env.episodeLength = b.env.episodeLength = 16;
  a.numEnvs = b.numEnvs = 3;
  a.rolloutThreads = 1;
  b.rolloutThreads = 4;
  expectOutcomesEqual(trainA2c(prob, a, 400), trainA2c(prob, b, 400));
}

// ---------- flattening ----------

TEST(FlatRolloutTest, SingleEnvMatchesComputeGaePlusNormalize) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  RolloutBuffer buf;
  for (int i = 0; i < 20; ++i) {
    Transition t;
    t.observation = {d(rng), d(rng)};
    t.actions = {0, 2};
    t.reward = d(rng);
    t.valueEstimate = d(rng);
    t.logProb = d(rng);
    t.done = i == 9;  // one episode boundary mid-buffer
    buf.transitions.push_back(t);
  }
  buf.bootstrapValue = 0.37;

  AdvantageResult ref = computeGae(buf, 0.99, 0.95);
  normalizeAdvantages(ref.advantages);
  const FlatRollout flat = flattenRollouts({buf}, 0.99, 0.95);
  ASSERT_EQ(flat.size(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(flat.advantages[i], ref.advantages[i]);
    EXPECT_EQ(flat.returns[i], ref.returns[i]);
    EXPECT_EQ(flat.logProbs[i], buf.transitions[i].logProb);
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_EQ(flat.observations(i, c), buf.transitions[i].observation[c]);
  }
}

TEST(FlatRolloutTest, ConcatenatesInEnvOrder) {
  RolloutBuffer b0, b1;
  Transition t;
  t.observation = {1.0};
  t.actions = {1};
  t.done = true;
  t.reward = 10.0;
  b0.transitions = {t};
  t.observation = {2.0};
  t.reward = 20.0;
  b1.transitions = {t, t};
  const FlatRollout flat = flattenRollouts({b0, b1}, 0.9, 0.9);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.observations(0, 0), 1.0);
  EXPECT_EQ(flat.observations(1, 0), 2.0);
  EXPECT_EQ(flat.observations(2, 0), 2.0);
}

}  // namespace
}  // namespace trdse::rl
