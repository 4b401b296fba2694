#include "rl/actor_critic.hpp"

#include <cassert>
#include <cmath>

namespace trdse::rl {

linalg::Vector headLogits(const linalg::Vector& logits, std::size_t head,
                          std::size_t actionsPerHead) {
  linalg::Vector h(actionsPerHead);
  for (std::size_t a = 0; a < actionsPerHead; ++a)
    h[a] = logits[head * actionsPerHead + a];
  return h;
}

PolicySample samplePolicy(const nn::Mlp& policy, const linalg::Vector& obs,
                          std::size_t heads, std::size_t actionsPerHead,
                          std::mt19937_64& rng) {
  const linalg::Vector logits = policy.predict(obs);
  assert(logits.size() == heads * actionsPerHead);
  PolicySample s;
  s.actions.resize(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    const linalg::Vector hl = headLogits(logits, h, actionsPerHead);
    s.actions[h] = nn::sampleCategorical(hl, rng);
    s.logProb += nn::logSoftmax(hl)[s.actions[h]];
    s.entropy += nn::categoricalEntropy(hl);
  }
  return s;
}

std::vector<std::size_t> greedyPolicy(const nn::Mlp& policy,
                                      const linalg::Vector& obs,
                                      std::size_t heads,
                                      std::size_t actionsPerHead) {
  const linalg::Vector logits = policy.predict(obs);
  std::vector<std::size_t> actions(heads);
  for (std::size_t h = 0; h < heads; ++h)
    actions[h] = nn::argmaxIndex(headLogits(logits, h, actionsPerHead));
  return actions;
}

void jointLogProbRowsFromTable(
    const linalg::Matrix& logSoftmaxTable,
    const std::vector<std::vector<std::size_t>>& actions,
    std::size_t actionsPerHead, linalg::Vector& out) {
  assert(actions.size() == logSoftmaxTable.rows());
  out.assign(logSoftmaxTable.rows(), 0.0);
  for (std::size_t r = 0; r < logSoftmaxTable.rows(); ++r) {
    const double* lpr = logSoftmaxTable.row(r);
    double s = 0.0;
    for (std::size_t h = 0; h < actions[r].size(); ++h)
      s += lpr[h * actionsPerHead + actions[r][h]];
    out[r] = s;
  }
}

void jointLogProbGradRowsFromTable(
    const linalg::Matrix& softmaxTable,
    const std::vector<std::vector<std::size_t>>& actions,
    std::size_t actionsPerHead, linalg::Matrix& out) {
  assert(actions.size() == softmaxTable.rows());
  out.resize(softmaxTable.rows(), softmaxTable.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const double* p = softmaxTable.row(r);
    double* g = out.row(r);
    for (std::size_t i = 0; i < out.cols(); ++i) g[i] = -p[i];
    for (std::size_t h = 0; h < actions[r].size(); ++h)
      g[h * actionsPerHead + actions[r][h]] += 1.0;
  }
}

void jointEntropyGradRowsFromTable(const linalg::Matrix& logSoftmaxTable,
                                   std::size_t actionsPerHead,
                                   linalg::Matrix& out) {
  out.resize(logSoftmaxTable.rows(), logSoftmaxTable.cols());
  const std::size_t heads = logSoftmaxTable.cols() / actionsPerHead;
  // exp(lp) appears in both the entropy sum and the gradient; computing it
  // once per element is bitwise-safe (same input -> same exp value).
  std::vector<double> p(actionsPerHead);
  for (std::size_t r = 0; r < logSoftmaxTable.rows(); ++r) {
    const double* lpr = logSoftmaxTable.row(r);
    double* g = out.row(r);
    for (std::size_t h = 0; h < heads; ++h) {
      const double* hl = lpr + h * actionsPerHead;
      double ent = 0.0;
      for (std::size_t a = 0; a < actionsPerHead; ++a) {
        p[a] = std::exp(hl[a]);
        ent -= p[a] * hl[a];
      }
      for (std::size_t a = 0; a < actionsPerHead; ++a)
        g[h * actionsPerHead + a] = -p[a] * (hl[a] + ent);
    }
  }
}

double sumJointKlRowsFromTables(const linalg::Matrix& logSoftmaxOld,
                                const linalg::Matrix& logSoftmaxNew,
                                std::size_t actionsPerHead) {
  assert(logSoftmaxOld.rows() == logSoftmaxNew.rows() &&
         logSoftmaxOld.cols() == logSoftmaxNew.cols());
  const std::size_t heads = logSoftmaxOld.cols() / actionsPerHead;
  double kl = 0.0;
  for (std::size_t r = 0; r < logSoftmaxOld.rows(); ++r) {
    const double* lpr = logSoftmaxOld.row(r);
    const double* lqr = logSoftmaxNew.row(r);
    // Per-head subtotals first, then head-ascending accumulation.
    double rowKl = 0.0;
    for (std::size_t h = 0; h < heads; ++h) {
      double headKl = 0.0;
      for (std::size_t a = 0; a < actionsPerHead; ++a) {
        const std::size_t i = h * actionsPerHead + a;
        headKl += std::exp(lpr[i]) * (lpr[i] - lqr[i]);
      }
      rowKl += headKl;
    }
    kl += rowKl;
  }
  return kl;
}

void jointKlGradRowsFromTables(const linalg::Matrix& softmaxOld,
                               const linalg::Matrix& softmaxNew,
                               linalg::Matrix& out) {
  assert(softmaxOld.rows() == softmaxNew.rows() &&
         softmaxOld.cols() == softmaxNew.cols());
  out.resize(softmaxNew.rows(), softmaxNew.cols());
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = softmaxNew.data()[i] - softmaxOld.data()[i];
}

nn::Mlp makePolicyNet(std::size_t obsDim, std::size_t heads,
                      std::size_t actionsPerHead, std::size_t hidden,
                      std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.layerSizes = {obsDim, hidden, hidden, heads * actionsPerHead};
  cfg.hidden = nn::Activation::kTanh;
  cfg.output = nn::Activation::kIdentity;
  return nn::Mlp(cfg, seed);
}

nn::Mlp makeValueNet(std::size_t obsDim, std::size_t hidden, std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.layerSizes = {obsDim, hidden, hidden, 1};
  cfg.hidden = nn::Activation::kTanh;
  cfg.output = nn::Activation::kIdentity;
  return nn::Mlp(cfg, seed);
}

}  // namespace trdse::rl
