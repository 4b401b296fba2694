// Categorical-distribution utilities shared by the model-free RL baselines
// (multi-discrete AutoCkt-style action heads for A2C / PPO / TRPO).
#pragma once

#include <random>

#include "linalg/matrix.hpp"

namespace trdse::nn {

/// Numerically-stable softmax.
linalg::Vector softmax(const linalg::Vector& logits);

/// Numerically-stable log-softmax.
linalg::Vector logSoftmax(const linalg::Vector& logits);

/// Sample an index from softmax(logits).
std::size_t sampleCategorical(const linalg::Vector& logits, std::mt19937_64& rng);

/// argmax of the logits (greedy action).
std::size_t argmaxIndex(const linalg::Vector& logits);

/// Entropy of softmax(logits).
double categoricalEntropy(const linalg::Vector& logits);

// ---- Batched (row-major matrix) variants ----
//
// Each row of `logits` holds the head-major logits of one sample: a
// concatenation of `segment`-wide blocks, one block per categorical head.
// The transforms apply independently per block with the arithmetic of the
// per-vector functions above (max-shift, ascending-index summation), so the
// log-probs a trainer derives in batch equal, bit for bit, the ones its
// rollouts recorded one sample at a time. Outputs are resized by the callee;
// capacity persists, so steady-state calls reuse storage.

/// Per-block softmax of every row of `logits` into `out`.
/// @param segment block width; must divide logits.cols() evenly.
void softmaxSegments(const linalg::Matrix& logits, std::size_t segment,
                     linalg::Matrix& out);

/// Per-block log-softmax of every row of `logits` into `out`.
/// @param segment block width; must divide logits.cols() evenly.
void logSoftmaxSegments(const linalg::Matrix& logits, std::size_t segment,
                        linalg::Matrix& out);

}  // namespace trdse::nn
