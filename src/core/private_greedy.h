// Differentially private network construction (paper §4.2–§4.3 and §5.2).
//
// Both variants replace the argmax of the non-private GreedyBayes
// (Algorithm 2) with the exponential mechanism, invoked d−1 times at budget
// ε1/(d−1) each with scale Δ = (d−1)·S(score)/ε1:
//
//   LearnNetworkBinary  — Algorithm 2 + EM. All attributes binary; the
//     network degree k comes from θ-usefulness (Lemma 4.8) unless fixed.
//     Parent sets are exactly min(k, |V|)-subsets of V, which guarantees the
//     chain property Π_i = {X_1..X_{i−1}} for i <= k+1 that Algorithm 1's
//     zero-cost derivation of the first k conditionals relies on.
//
//   LearnNetworkGeneral — Algorithm 4. Parent candidates are the maximal
//     (generalized) parent sets under the θ-usefulness domain cap τ(X)
//     (Algorithms 5/6); attributes whose own marginal already violates
//     θ-usefulness fall back to (X, ∅) so every attribute is modeled.
//
// ε1 <= 0 selects noiselessly (argmax) and charges nothing — this implements
// both the BestNetwork ablation (§6.4) and, with score I, the "NoPrivacy"
// line of Fig. 4.

#ifndef PRIVBAYES_CORE_PRIVATE_GREEDY_H_
#define PRIVBAYES_CORE_PRIVATE_GREEDY_H_

#include <cstddef>
#include <cstdint>

#include "bn/bayes_net.h"
#include "common/random.h"
#include "core/score_functions.h"
#include "dp/budget.h"

namespace privbayes {

/// Hit/miss counters of THIS learn's joint-count lookups against the
/// process-wide MarginalStore (data/marginal_store.h). Within one learn,
/// candidates that survive an iteration reappear with the same parent set
/// (cf. AIM-style marginal reuse); across learns on the same ColumnStore
/// snapshot (ε sweeps, ablations, serving refits) the store serves joints
/// counted by earlier runs, so a repeat learn can be all hits. Exposed for
/// the microbenchmarks and tests.
struct JointCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Knobs for both network learners.
struct PrivateGreedyOptions {
  /// Score driving the exponential mechanism.
  ScoreKind score = ScoreKind::kR;
  /// Budget for the whole network phase; <= 0 means noiseless selection.
  double epsilon1 = 0;
  /// PLANNED distribution-phase budget — used only to derive k (binary) or
  /// τ (general) via θ-usefulness; no noise is drawn from it here.
  double epsilon2_plan = 0;
  /// θ-usefulness threshold (paper default 4).
  double theta = 4;
  /// Binary algorithm: overrides the θ-derived degree when >= 0.
  int fixed_k = -1;
  /// Uniform per-iteration cap on the EM candidate set (0 = exact). The cap
  /// is applied with data-independent randomness, so DP is unaffected.
  size_t candidate_cap = 0;
  /// Ignored: F is always computed exactly (core/score_f_dp.h). Kept so that
  /// code setting the former F-frontier cap still compiles.
  size_t f_max_states = 0;
  /// Node budget before maximal-parent-set enumeration falls back to
  /// sampling (general algorithm only).
  size_t mps_node_budget = 200000;
  /// First attribute (paper: uniformly random; fix for reproducible tests).
  int first_attr = -1;
  /// When non-null, the learner accumulates its MarginalStore hit/miss
  /// counters here (adds to the existing values).
  JointCacheStats* cache_stats = nullptr;
};

/// A learned structure plus the degree the θ-usefulness rule chose
/// (k = −1 for the general algorithm, which has no single degree).
struct LearnedNetwork {
  BayesNet net;
  int k = -1;
};

/// Algorithm 2 + exponential mechanism (requires an all-binary schema).
LearnedNetwork LearnNetworkBinary(const Dataset& data,
                                  const PrivateGreedyOptions& options,
                                  Rng& rng, BudgetAccountant* acct = nullptr);

/// Algorithm 4 (general domains, maximal parent sets, optional taxonomies).
LearnedNetwork LearnNetworkGeneral(const Dataset& data,
                                   const PrivateGreedyOptions& options,
                                   Rng& rng, BudgetAccountant* acct = nullptr);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_PRIVATE_GREEDY_H_
