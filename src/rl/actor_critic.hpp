// Shared actor/critic machinery for the model-free baselines: a multi-head
// categorical policy (one 3-way head per sizing parameter, AutoCkt-style
// multi-discrete) over a plain MLP trunk, and a scalar value network.
#pragma once

#include <random>

#include "nn/distribution.hpp"
#include "nn/mlp.hpp"

namespace trdse::rl {

/// Policy network output helpers. Logits are laid out head-major:
/// [head0: a0 a1 a2 | head1: a0 a1 a2 | ...].
struct PolicySample {
  std::vector<std::size_t> actions;  ///< sampled sub-action per head
  double logProb = 0.0;              ///< joint log pi(actions | obs)
  double entropy = 0.0;              ///< summed per-head entropy
};

/// View one head's logits.
linalg::Vector headLogits(const linalg::Vector& logits, std::size_t head,
                          std::size_t actionsPerHead);

/// Sample all heads.
PolicySample samplePolicy(const nn::Mlp& policy, const linalg::Vector& obs,
                          std::size_t heads, std::size_t actionsPerHead,
                          std::mt19937_64& rng);

/// Greedy (argmax) action per head.
std::vector<std::size_t> greedyPolicy(const nn::Mlp& policy,
                                      const linalg::Vector& obs,
                                      std::size_t heads,
                                      std::size_t actionsPerHead);

// ---- Rollout-matrix helpers ----
//
// Row r of a table holds sample r's per-head probabilities, head-major (the
// layout Mlp::forwardBatch produces for the policy net). The tables are
// `nn::softmaxSegments` / `nn::logSoftmaxSegments` of one logits matrix, so
// the batched trainers evaluate each table once per pass and share it across
// helpers. Outputs are resized by the callee.

/// Per-row joint log-prob of `actions[r]` (sum over heads of
/// log pi(a_h | obs)) from a log-softmax table, written into `out`.
void jointLogProbRowsFromTable(
    const linalg::Matrix& logSoftmaxTable,
    const std::vector<std::vector<std::size_t>>& actions,
    std::size_t actionsPerHead, linalg::Vector& out);

/// Per-row d(joint log-prob)/d(logits) = onehot(actions) - softmax, from a
/// softmax table.
void jointLogProbGradRowsFromTable(
    const linalg::Matrix& softmaxTable,
    const std::vector<std::vector<std::size_t>>& actions,
    std::size_t actionsPerHead, linalg::Matrix& out);

/// Per-row d(summed per-head entropy)/d(logits) from a log-softmax table:
/// -p_i * (log p_i + H) for each head independently.
void jointEntropyGradRowsFromTable(const linalg::Matrix& logSoftmaxTable,
                                   std::size_t actionsPerHead,
                                   linalg::Matrix& out);

/// Sum over rows (ascending) of the joint KL(old || new), summed over heads,
/// from the two log-softmax tables.
double sumJointKlRowsFromTables(const linalg::Matrix& logSoftmaxOld,
                                const linalg::Matrix& logSoftmaxNew,
                                std::size_t actionsPerHead);

/// Per-row d(joint KL)/d(new logits) = softmaxNew - softmaxOld.
void jointKlGradRowsFromTables(const linalg::Matrix& softmaxOld,
                               const linalg::Matrix& softmaxNew,
                               linalg::Matrix& out);

/// Build default policy / value networks for an observation of `obsDim`.
nn::Mlp makePolicyNet(std::size_t obsDim, std::size_t heads,
                      std::size_t actionsPerHead, std::size_t hidden,
                      std::uint64_t seed);
/// Build the default scalar critic network for an observation of `obsDim`.
nn::Mlp makeValueNet(std::size_t obsDim, std::size_t hidden, std::uint64_t seed);

}  // namespace trdse::rl
