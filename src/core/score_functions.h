// The three AP-pair score functions of the paper and their sensitivities.
//
//   I (§4.2)  — mutual information I(X; Π); sensitivity per Lemma 4.1.
//   F (§4.3)  — −½ · L1 distance to the nearest maximum joint distribution;
//               sensitivity 1/n (Thm 4.5); computable only for binary X
//               (general case NP-hard, Thm 5.1).
//   R (§5.3)  — ½ · L1 distance from Pr[X, Π] to Pr[X]·Pr[Π]; sensitivity
//               <= 3/n + 2/n² (Thm 5.3); works on any domain.
//
// All score evaluations take the empirical joint COUNTS with the child
// variable LAST in table order, plus the dataset size n.

#ifndef PRIVBAYES_CORE_SCORE_FUNCTIONS_H_
#define PRIVBAYES_CORE_SCORE_FUNCTIONS_H_

#include <cstdint>

#include "prob/prob_table.h"

namespace privbayes {

/// Which score drives the exponential mechanism in network learning.
enum class ScoreKind {
  kI,  ///< mutual information
  kF,  ///< distance to maximum joint distribution (binary domains)
  kR,  ///< distance to independent product (general domains)
};

/// "I" / "F" / "R".
const char* ScoreName(ScoreKind kind);

/// Lemma 4.1. `binary_side` selects the tighter bound that applies when X or
/// Π is binary. Logs are base 2 (paper footnote 2).
double SensitivityI(int64_t n, bool binary_side);

/// Theorem 4.5: S(F) = 1/n.
double SensitivityF(int64_t n);

/// Theorem 5.3: S(R) <= 3/n + 2/n².
double SensitivityR(int64_t n);

/// Dispatch. For kI, `binary_side` declares whether every scored pair has a
/// binary X or binary Π (true for all-binary datasets).
double ScoreSensitivity(ScoreKind kind, int64_t n, bool binary_side);

/// I(X; Π) from joint counts (child last). Returns 0 for empty parents.
double ScoreI(const ProbTable& joint_counts, int64_t n);

/// R(X, Π) from joint counts (child last).
double ScoreR(const ProbTable& joint_counts, int64_t n);

/// F(X, Π) from joint counts (child last; child must be binary). Exact;
/// see score_f_dp.h.
double ScoreF(const ProbTable& joint_counts, int64_t n);

/// Dispatch over the three scores.
double ComputeScore(ScoreKind kind, const ProbTable& joint_counts, int64_t n);

/// The same scores from counts in ANY variable order given the child's
/// ProbTable variable id (GenVarId). This is how candidates are scored from
/// the MarginalStore's canonical sorted-order tables: one cached joint serves
/// every (parents, child) arrangement of the same attribute set. All three
/// read the table in place, without a reorder copy.
double ScoreIForChild(const ProbTable& joint_counts, int child_var, int64_t n);
double ScoreRForChild(const ProbTable& joint_counts, int child_var, int64_t n);
double ScoreFForChild(const ProbTable& joint_counts, int child_var, int64_t n);
/// The trailing argument is ignored: F is always exact. It is kept so that
/// callers written against the former F-frontier cap still compile.
double ComputeScoreForChild(ScoreKind kind, const ProbTable& joint_counts,
                            int child_var, int64_t n,
                            size_t /*ignored*/ = 0);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_SCORE_FUNCTIONS_H_
