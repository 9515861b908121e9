// Tests for core/score_f_dp: the F knapsack against brute force and a plain
// 2-D reference DP (bit-exact), paper examples, the ⌈n/2⌉ clamp, each branch
// of the reduction, edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/score_f_dp.h"

namespace privbayes {
namespace {

// The plain 2-D DP over states (a, b), both clamped at H = ⌈n/2⌉, with
// none of the reduction's shortcuts: best[a] is the largest b reachable with
// a-coordinate exactly a (−1 if none), and each parent value sends its mass
// to one side or the other.
double ReferenceDp(const std::vector<FColumn>& cols, int64_t n) {
  const int64_t half = (n + 1) / 2;
  std::vector<int64_t> best(half + 1, -1);
  best[0] = 0;
  for (const FColumn& col : cols) {
    std::vector<int64_t> next(half + 1, -1);
    for (int64_t a = 0; a <= half; ++a) {
      if (best[a] < 0) continue;
      const int64_t to_a = std::min(half, a + col.first);
      next[to_a] = std::max(next[to_a], best[a]);
      next[a] = std::max(next[a], std::min(half, best[a] + col.second));
    }
    best.swap(next);
  }
  int64_t objective = 2 * n;
  for (int64_t a = 0; a <= half; ++a) {
    if (best[a] < 0) continue;
    objective = std::min(objective, std::max<int64_t>(0, n - 2 * a) +
                                        std::max<int64_t>(0, n - 2 * best[a]));
  }
  return -static_cast<double>(objective) / (2.0 * static_cast<double>(n));
}

TEST(ScoreFDp, PaperTable3Example) {
  // Table 3(a): n = 10; column counts (X=0, X=1): (6,1), (0,1), (0,1),
  // (0,1). Min L1 distance to a maximum joint distribution is 0.4, so
  // F = −0.2.
  std::vector<FColumn> cols = {{6, 1}, {0, 1}, {0, 1}, {0, 1}};
  EXPECT_NEAR(ScoreFFromColumns(cols, 10), -0.2, 1e-12);
  EXPECT_NEAR(ScoreFBruteForce(cols, 10), -0.2, 1e-12);
}

TEST(ScoreFDp, PerfectCorrelationScoresZero) {
  // Two columns, each pure, half the mass each: already a maximum joint
  // distribution.
  std::vector<FColumn> cols = {{5, 0}, {0, 5}};
  EXPECT_NEAR(ScoreFFromColumns(cols, 10), 0.0, 1e-12);
}

TEST(ScoreFDp, IndependentUniformScoresMinusQuarter) {
  // Uniform 2×2 with n = 8: columns (2,2), (2,2). Best assignment gives
  // K0 = K1 = 1/4 → F = −(1/4 + 1/4)... each (1/2 − 1/4) = 1/4 → −1/2? No:
  // assign column 1 to Z+0 (a = 2) and column 2 to Z+1 (b = 2):
  // a/n = b/n = 1/4, objective = 1/4 + 1/4 = 1/2... F = −... brute force is
  // authoritative here; just require DP == brute force.
  std::vector<FColumn> cols = {{2, 2}, {2, 2}};
  EXPECT_NEAR(ScoreFFromColumns(cols, 8), ScoreFBruteForce(cols, 8), 1e-12);
  EXPECT_NEAR(ScoreFFromColumns(cols, 8), -0.5, 1e-12);
}

TEST(ScoreFDp, SingleColumn) {
  // All mass in one column: best is max(c0, c1) toward one side.
  std::vector<FColumn> cols = {{3, 7}};
  // Assign to Z+1: b = 7 -> (1/2 - 0)+ + (1/2 - 0.7)+ = 0.5 -> F = -0.5.
  EXPECT_NEAR(ScoreFFromColumns(cols, 10), -0.5, 1e-12);
}

TEST(ScoreFDp, RangeIsMinusHalfToZero) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    int cols_n = 1 + static_cast<int>(rng.UniformInt(10));
    int64_t n = 0;
    std::vector<FColumn> cols(cols_n);
    for (FColumn& c : cols) {
      c.first = rng.UniformInt(20);
      c.second = rng.UniformInt(20);
      n += c.first + c.second;
    }
    if (n == 0) continue;
    double f = ScoreFFromColumns(cols, n);
    EXPECT_LE(f, 0.0);
    EXPECT_GE(f, -0.5 - 1e-12);
  }
}

// Random columns that reach the ⌈n/2⌉ clamp: counts up to 5,000, up to 20
// columns, with empty and one-sided columns mixed in.
std::vector<FColumn> RandomColumns(Rng& rng, int64_t* n) {
  static constexpr uint64_t kMaxCount[] = {12, 100, 5000};
  int cols_n = 1 + static_cast<int>(rng.UniformInt(20));
  uint64_t max_count = kMaxCount[rng.UniformInt(3)] + 1;
  std::vector<FColumn> cols(cols_n);
  *n = 0;
  for (FColumn& c : cols) {
    switch (rng.UniformInt(5)) {
      case 0:  // empty parent value
        c = {0, 0};
        break;
      case 1:
        c = {static_cast<int64_t>(rng.UniformInt(max_count)), 0};
        break;
      case 2:
        c = {0, static_cast<int64_t>(rng.UniformInt(max_count))};
        break;
      default:
        c = {static_cast<int64_t>(rng.UniformInt(max_count)),
             static_cast<int64_t>(rng.UniformInt(max_count))};
    }
    *n += c.first + c.second;
  }
  return cols;
}

TEST(ScoreFDp, MatchesBruteForceRandomized) {
  Rng rng(2);
  int compared = 0, nonzero = 0;
  for (int trial = 0; trial < 300; ++trial) {
    int64_t n = 0;
    std::vector<FColumn> cols = RandomColumns(rng, &n);
    if (n == 0) continue;
    double expected = ScoreFBruteForce(cols, n);
    EXPECT_EQ(ScoreFFromColumns(cols, n), expected) << "trial " << trial;
    ++compared;
    nonzero += expected != 0.0;
  }
  EXPECT_GE(compared, 200);
  EXPECT_GE(nonzero, 100);  // the early exit does not decide every case
}

TEST(ScoreFDp, OddAndEvenN) {
  // n = 8, H = 4: a = b = 4 zeroes both terms.
  std::vector<FColumn> even = {{4, 0}, {0, 4}};
  EXPECT_EQ(ScoreFFromColumns(even, 8), 0.0);
  // n = 7, H = 4: a = 4 is enough, b = 3 leaves (7 − 6) = 1 → F = −1/14.
  std::vector<FColumn> odd = {{4, 0}, {0, 3}};
  EXPECT_EQ(ScoreFFromColumns(odd, 7), -1.0 / 14.0);
  EXPECT_EQ(ScoreFBruteForce(odd, 7), -1.0 / 14.0);
  // n = 9, H = 5: b = 4 falls one short → F = −1/18.
  std::vector<FColumn> odd9 = {{5, 0}, {0, 4}};
  EXPECT_EQ(ScoreFFromColumns(odd9, 9), -1.0 / 18.0);
}

TEST(ScoreFDp, ColumnHoldingHalfOrMore) {
  // n = 10, H = 5. A column with c0 >= H saturates a on its own.
  std::vector<FColumn> big0 = {{6, 0}, {1, 3}};
  EXPECT_EQ(ScoreFFromColumns(big0, 10), ScoreFBruteForce(big0, 10));
  EXPECT_EQ(ScoreFFromColumns(big0, 10), -0.2);  // a = 6, b = 3
  // c1 >= H: b = 7 from the first column, a = 2 from the second.
  std::vector<FColumn> big1 = {{0, 7}, {2, 1}};
  EXPECT_EQ(ScoreFFromColumns(big1, 10), ScoreFBruteForce(big1, 10));
  EXPECT_EQ(ScoreFFromColumns(big1, 10), -0.3);
  // Both sides of one column at H: only one side can be kept.
  std::vector<FColumn> both = {{5, 5}};
  EXPECT_EQ(ScoreFFromColumns(both, 10), -0.5);
  // Counts far beyond H (and beyond n) saturate without overflow.
  std::vector<FColumn> huge = {{int64_t{1} << 40, 0}, {0, 3}};
  EXPECT_EQ(ScoreFFromColumns(huge, 10), -0.2);
}

TEST(ScoreFDp, ZeroColumnsAndSingleColumn) {
  // No parent values at all: only (a, b) = (0, 0) → (n + n) / 2n.
  EXPECT_EQ(ScoreFFromColumns({}, 10), -1.0);
  EXPECT_EQ(ScoreFBruteForce({}, 10), -1.0);
  // Empty parent values change nothing.
  std::vector<FColumn> cols = {{0, 0}, {6, 1}, {0, 0}, {0, 1}, {0, 1},
                               {0, 0}, {0, 1}};
  EXPECT_EQ(ScoreFFromColumns(cols, 10), -0.2);
  // One parent value: the larger side is kept, the other term is ½.
  for (int64_t c0 = 0; c0 <= 9; ++c0) {
    std::vector<FColumn> one = {{c0, 9 - c0}};
    EXPECT_EQ(ScoreFFromColumns(one, 9), ScoreFBruteForce(one, 9)) << c0;
  }
}

TEST(ScoreFDp, EarlyExitIgnoresScratchBeyondTheReach) {
  // Alternate an instance that exits early (g[H] = H) with one of the same
  // n whose reach stays below H for several columns: a check of g[H] before
  // the reach is H would read what the previous call left in the scratch.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t half = 50 + static_cast<int64_t>(rng.UniformInt(500));
    int64_t n = 2 * half;
    std::vector<FColumn> exits = {{half, 0}, {0, half}};
    ASSERT_EQ(ScoreFFromColumns(exits, n), 0.0);
    std::vector<FColumn> slow;
    int64_t left = n;
    while (left > 0) {
      int64_t c0 = std::min<int64_t>(left, 1 + rng.UniformInt(half / 4));
      left -= c0;
      int64_t c1 = std::min<int64_t>(left, rng.UniformInt(half / 4));
      left -= c1;
      slow.push_back({c0, c1});
    }
    if (slow.size() > 20) continue;
    EXPECT_EQ(ScoreFFromColumns(slow, n), ScoreFBruteForce(slow, n))
        << "trial " << trial;
  }
}

TEST(ScoreFDp, NoProfitableValue) {
  // Every parent value is balanced, so no value lowers the objective and
  // none is sent to X = 0: F = −(n + n − 2·A1) / 2n.
  std::vector<FColumn> cols = {{2, 2}, {3, 3}, {0, 0}};
  EXPECT_EQ(ScoreFFromColumns(cols, 10), ScoreFBruteForce(cols, 10));
  EXPECT_EQ(ScoreFFromColumns(cols, 10), -0.5);
}

TEST(ScoreFDp, ClosedForm) {
  // n = 21, A0 = 11, A1 = 10. The profitable values hold weight 4 + 2 + 1
  // <= n/2, so (n − 2W)₊ never clamps and all of them go to X = 0:
  // (21 − 14) + 2·1 + (21 − 20) = 10 → F = −10/42.
  std::vector<FColumn> cols = {{4, 1}, {2, 0}, {1, 4}, {3, 5}, {1, 0}};
  EXPECT_EQ(ScoreFFromColumns(cols, 21), ScoreFBruteForce(cols, 21));
  EXPECT_EQ(ScoreFFromColumns(cols, 21), -10.0 / 42.0);
  // The same with the minority on X = 0.
  std::vector<FColumn> mirrored;
  for (const FColumn& c : cols) mirrored.push_back({c.second, c.first});
  EXPECT_EQ(ScoreFFromColumns(mirrored, 21), -10.0 / 42.0);
}

TEST(ScoreFDp, FreeMassReachesHalf) {
  // Values with no count on the minority side hold ⌈n/2⌉ between them, so
  // the first term vanishes at no cost: F = −(n − 2·A1) / 2n.
  std::vector<FColumn> cols = {{3, 0}, {3, 0}, {1, 2}, {2, 1}};
  EXPECT_EQ(ScoreFFromColumns(cols, 12), ScoreFBruteForce(cols, 12));
  EXPECT_EQ(ScoreFFromColumns(cols, 12), -6.0 / 24.0);
}

TEST(ScoreFDp, CostCapDropsExpensiveValues) {
  // n = 120, H = 60, A1 = 32, free weight 40. The greedy bound is 16
  // ((120 − 110) + 2·3, taking (12, 1) and (3, 2)), so C <= 8 and (30, 25)
  // is dropped: F = −(16 + 120 − 64) / 240.
  std::vector<FColumn> cols = {{40, 0}, {12, 1}, {30, 25}, {3, 2}, {1, 1},
                               {2, 3}};
  EXPECT_EQ(ScoreFFromColumns(cols, 120), ScoreFBruteForce(cols, 120));
  EXPECT_EQ(ScoreFFromColumns(cols, 120), -0.3);
  EXPECT_EQ(ScoreFFromColumns(cols, 120), ReferenceDp(cols, 120));
}

TEST(ScoreFDp, OddNThroughTheKnapsack) {
  // n = 15, H = 8, A1 = 5: W must reach 8, and (5, 1) + (3, 1) does it at
  // cost 2.
  std::vector<FColumn> cols = {{5, 1}, {3, 1}, {2, 1}, {0, 2}};
  EXPECT_EQ(ScoreFFromColumns(cols, 15), ScoreFBruteForce(cols, 15));
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t n = 0;
    std::vector<FColumn> odd = RandomColumns(rng, &n);
    if (n % 2 == 0) {
      odd.push_back({1, 0});
      ++n;
    }
    EXPECT_EQ(ScoreFFromColumns(odd, n), ScoreFBruteForce(odd, n))
        << "trial " << trial;
  }
}

TEST(ScoreFDp, CountBeyondNOnOneSide) {
  // A count far beyond n on the majority side saturates W on its own; the
  // minority side still holds at most n/2.
  std::vector<FColumn> cols = {{int64_t{1} << 40, 2}, {3, 1}, {1, 2}};
  EXPECT_EQ(ScoreFFromColumns(cols, 10), ScoreFBruteForce(cols, 10));
  std::vector<FColumn> mirrored = {{2, int64_t{1} << 40}, {1, 3}, {2, 1}};
  EXPECT_EQ(ScoreFFromColumns(mirrored, 10), ScoreFBruteForce(mirrored, 10));
}

TEST(ScoreFDp, MatchesReferenceDpOnNltcsShapedTables) {
  // 128 parent values over n = 21,574 (NLTCS), cells skewed the way real
  // 7-parent tables are: most small, a few holding much of the mass.
  Rng rng(9);
  const int64_t n = 21574;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> cumulative(256);
    double total = 0;
    for (double& c : cumulative) c = total += std::exp(4.0 * rng.Gaussian());
    std::vector<FColumn> cols(128);
    for (int64_t row = 0; row < n; ++row) {
      const size_t cell = std::min<size_t>(
          255, std::upper_bound(cumulative.begin(), cumulative.end(),
                                rng.Uniform() * total) -
                   cumulative.begin());
      (cell % 2 == 0 ? cols[cell / 2].first : cols[cell / 2].second) += 1;
    }
    EXPECT_EQ(ScoreFFromColumns(cols, n), ReferenceDp(cols, n))
        << "trial " << trial;
  }
}

TEST(ScoreFDp, LargeInstanceRunsFast) {
  // 128 columns over n ≈ 25,000: the NLTCS k = 7 shape, exact.
  Rng rng(4);
  std::vector<FColumn> cols(128);
  int64_t n = 0;
  for (FColumn& c : cols) {
    c.first = rng.UniformInt(200);
    c.second = rng.UniformInt(200);
    n += c.first + c.second;
  }
  double f = ScoreFFromColumns(cols, n);
  EXPECT_LE(f, 0.0);
  EXPECT_GE(f, -0.5);
}

TEST(ScoreFDp, InvalidInputs) {
  std::vector<FColumn> cols = {{1, 1}};
  EXPECT_THROW(ScoreFFromColumns(cols, 0), std::invalid_argument);
  // The DP runs in int32: n must stay below 2^30.
  EXPECT_THROW(ScoreFFromColumns(cols, int64_t{1} << 30),
               std::invalid_argument);
  EXPECT_THROW(ScoreFFromColumns(cols, int64_t{1} << 40),
               std::invalid_argument);
  // Both sides of X hold more than n/2: no table of n rows does that.
  EXPECT_THROW(ScoreFFromColumns(cols, 1), std::invalid_argument);
  std::vector<FColumn> both_over = {{3, 4}, {3, 2}};
  EXPECT_THROW(ScoreFFromColumns(both_over, 10), std::invalid_argument);
  std::vector<FColumn> huge_both = {{int64_t{1} << 40, int64_t{1} << 40}};
  EXPECT_THROW(ScoreFFromColumns(huge_both, 10), std::invalid_argument);
  // Exactly n/2 on the smaller side is allowed.
  std::vector<FColumn> at_half = {{5, 5}, {1, 0}};
  EXPECT_EQ(ScoreFFromColumns(at_half, 10), ScoreFBruteForce(at_half, 10));
  std::vector<FColumn> too_many(30, {1, 1});
  EXPECT_THROW(ScoreFBruteForce(too_many, 60), std::invalid_argument);
}

}  // namespace
}  // namespace privbayes
