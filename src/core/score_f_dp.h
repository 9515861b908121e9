// Dynamic program for the score function F (paper §4.4).
//
// F(X, Π) = −½ · min distance from Pr[X, Π] to a maximum joint distribution
// (Def. 4.2). For binary X, inequality (9) reduces the minimization to
// choosing, for every parent value π, whether its probability mass counts
// toward K0 (cell (0, π) kept non-zero) or K1 (cell (1, π)), and then
//
//   F = −min over reachable (a, b) of (½ − a/n)₊ + (½ − b/n)₊ ,
//
// where a = n·K0, b = n·K1 are integers because every empirical cell is a
// multiple of 1/n. The DP sweeps the parent values, maintaining the set of
// non-dominated reachable (a, b) states (Def. 4.6), for O(n·|dom(Π)|) time.
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

/// Exact-or-approximate DP for F. `n` is the dataset size (sum of all
/// counts). `max_states` caps the non-dominated frontier: 0 keeps it exact;
/// a positive cap thins the frontier to per-bucket maxima. Each of the
/// |columns| merge steps loses at most one bucket width, n / max_states
/// counts, so F is under-estimated by at most |columns| / max_states — e.g.
/// 64 / 8192 ≈ 7.8e-3 for a degree-6 parent set at the library default.
/// Returns a value in [−0.5, 0].
double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n,
                         size_t max_states = 0);

/// Brute force over all 2^|columns| assignments; reference implementation
/// for tests (requires |columns| <= 24).
double ScoreFBruteForce(std::span<const FColumn> columns, int64_t n);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_SCORE_F_DP_H_
