// Exact score F (paper §4.4) as a one-sided knapsack.
//
// F(X, Π) = −½ · min distance from Pr[X, Π] to a maximum joint distribution
// (Def. 4.2). For binary X, inequality (9) reduces the minimization to
// choosing a set S of parent values whose X = 0 cells are kept, and then
//
//   F = −min over S of [(n − 2a)₊ + (n − 2b)₊] / (2n),
//   a = Σ_{π∈S} c0(π),  b = Σ_{π∉S} c1(π),
//
// with integer counts c0, c1. The objective is symmetric in the two sides,
// so orient them so that A1 = Σ c1 <= n/2 (when the counts sum to n, the
// smaller side does).
//
// * b <= A1 <= n/2, so (n − 2b)₊ = n − 2b never clamps. With W = a and
//   C = Σ_{π∈S} c1(π), b = A1 − C and the objective is
//   (n − 2W)₊ + 2C + (n − 2A1).
// * A value with c0 <= c1 never helps: adding it to S lowers (n − 2W)₊ by
//   at most 2·c0 and raises 2C by 2·c1. It is left out of S.
// * A value with c1 = 0 always helps or is neutral: free weight, always in S.
// * If 2·(free + Σ W) <= n, (n − 2W)₊ never clamps and every remaining value
//   lowers the objective by 2(c0 − c1): the answer is a closed form. If the
//   free weight alone reaches H = ⌈n/2⌉, S = the free values is optimal.
// * Otherwise g[C] = the largest W (clamped at H) of any S with cost <= C,
//   one max-plus pass per value: g'[C] = max(g[C], min(H, g[C − c1] + c0)).
//   The answer is min over C of (n − 2·g[C])₊ + 2C. Any feasible S gives an
//   upper bound UB (here the best prefix of the values by ascending cost),
//   and an optimum has 2C <= its objective <= UB, so C is cut at
//   Cmax = min(Σ C, ⌊UB/2⌋) and values costing more than Cmax are dropped;
//   the cut is exact. Taking values cheapest first, g is flat beyond the
//   total cost so far, so each pass stops there.
//
// The integer objective is divided by 2n once, so the result is the exact
// double. Time O(|dom Π| · Cmax) with Cmax <= n/2; scratch two int32 arrays
// of Cmax + 1 entries, freed before the call returns.
//
// Exact computation for general X is NP-hard (Thm 5.1); this module supports
// binary X with arbitrary finite parent domains, which covers every place
// the paper uses F.

#ifndef PRIVBAYES_CORE_SCORE_F_DP_H_
#define PRIVBAYES_CORE_SCORE_F_DP_H_

#include <cstdint>
#include <span>
#include <utility>

namespace privbayes {

/// Per-parent-value counts: (count of X = 0, count of X = 1).
using FColumn = std::pair<int64_t, int64_t>;

/// Exact F from per-parent-value counts, in any order. `n` is the dataset
/// size (sum of all counts); it must lie in [1, 2^30) so the DP fits in
/// int32. Counts must be non-negative, and one side of X must hold at most
/// n/2 (throws std::invalid_argument otherwise; every table of n rows
/// does). Returns a value in [−0.5, 0] when the counts sum to n.
double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n);

/// Brute force over all 2^|columns| assignments, with the same integer
/// objective and final division as the DP; reference implementation for
/// tests (requires |columns| <= 24).
double ScoreFBruteForce(std::span<const FColumn> columns, int64_t n);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_SCORE_F_DP_H_
