// Dynamic program for the score function F (paper §4.4).
//
// F(X, Π) = −½ · min distance from Pr[X, Π] to a maximum joint distribution
// (Def. 4.2). For binary X, inequality (9) reduces the minimization to
// choosing, for every parent value π, whether its probability mass counts
// toward K0 (cell (0, π) kept non-zero) or K1 (cell (1, π)), and then
//
//   F = −min over reachable (a, b) of (½ − a/n)₊ + (½ − b/n)₊
//     = −min over reachable (a, b) of [(n − 2a)₊ + (n − 2b)₊] / (2n),
//
// where a = n·K0, b = n·K1 are integers because every empirical cell is a
// multiple of 1/n. Both terms are flat once a (or b) reaches H = ⌈n/2⌉, so
// both coordinates are clamped at H and the non-dominated states (Def. 4.6)
// become a dense array g[a] = the largest b reachable with a-coordinate
// ≥ a, for a in [0, H]. Each parent value (c0, c1) is one branch-free
// max-plus update over the reach top = min(H, Σc0):
//
//   g'[a] = min(H, max(g[a] + c1, g[max(0, a − c0)])),
//
// and one integer min-scan of (n − 2a)₊ + (n − 2·g[a])₊ over [0, top] gives
// F, divided by 2n once. The result is exact. Neither the order of the
// parent values nor which side of X indexes g changes it, so parent values
// are taken small counts first (the reach grows as late as possible) and g
// is indexed by the side whose reach costs less.
//
// Time O(|dom Π| · ⌈n/2⌉); two int32 arrays of ⌈n/2⌉ + 1 entries (about
// 8·⌈n/2⌉ bytes) of scratch, freed before the call returns.
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

/// Exact F from per-parent-value counts. `n` is the dataset size (sum of all
/// counts); it must lie in [1, 2^30) so the DP fits in int32. Counts must be
/// non-negative. Returns a value in [−0.5, 0].
double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n);

/// Brute force over all 2^|columns| assignments, with the same integer
/// objective and final division as the DP; reference implementation for
/// tests (requires |columns| <= 24).
double ScoreFBruteForce(std::span<const FColumn> columns, int64_t n);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_SCORE_F_DP_H_
