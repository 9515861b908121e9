// Tests for core/score_functions: sensitivities (Lemma 4.1, Thm 4.5,
// Thm 5.3) including empirical neighbour-pair property tests, and the three
// score evaluations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/score_functions.h"
#include "data/dataset.h"
#include "prob/information.h"

namespace privbayes {
namespace {

Schema PairSchema(int cx, int cpi) {
  return Schema(
      {Attribute::Categorical("p", cpi), Attribute::Categorical("x", cx)});
}

// Builds the joint-counts table (parent first, child LAST) from a dataset.
ProbTable PairCounts(const Dataset& d) {
  std::vector<int> attrs = {0, 1};
  return d.JointCounts(attrs);
}

TEST(Sensitivity, ClosedFormsMatchLemma) {
  int64_t n = 1000;
  double nd = n;
  double binary = std::log2(nd) / nd + (nd - 1) / nd * std::log2(nd / (nd - 1));
  EXPECT_NEAR(SensitivityI(n, true), binary, 1e-15);
  double general = 2 / nd * std::log2((nd + 1) / 2) +
                   (nd - 1) / nd * std::log2((nd + 1) / (nd - 1));
  EXPECT_NEAR(SensitivityI(n, false), general, 1e-15);
  EXPECT_NEAR(SensitivityF(n), 1e-3, 1e-15);
  EXPECT_NEAR(SensitivityR(n), 3e-3 + 2e-6, 1e-15);
}

TEST(Sensitivity, BinaryBoundIsTighter) {
  for (int64_t n : {10, 100, 10000}) {
    EXPECT_LT(SensitivityI(n, true), SensitivityI(n, false));
  }
}

TEST(Sensitivity, OrderingFLessRLessI) {
  // §5.3: S(F) < S(R)/3-ish < S(I); F and R are both O(1/n), I is
  // O(log n / n).
  int64_t n = 21574;
  EXPECT_LT(SensitivityF(n), SensitivityR(n));
  EXPECT_LT(SensitivityR(n), SensitivityI(n, true));
  EXPECT_LT(SensitivityF(n), SensitivityI(n, true) / std::log2(double(n)) + 1e-12);
}

TEST(Sensitivity, DispatchMatches) {
  int64_t n = 500;
  EXPECT_EQ(ScoreSensitivity(ScoreKind::kI, n, true), SensitivityI(n, true));
  EXPECT_EQ(ScoreSensitivity(ScoreKind::kF, n, true), SensitivityF(n));
  EXPECT_EQ(ScoreSensitivity(ScoreKind::kR, n, false), SensitivityR(n));
}

TEST(ScoreNames, AllNamed) {
  EXPECT_STREQ(ScoreName(ScoreKind::kI), "I");
  EXPECT_STREQ(ScoreName(ScoreKind::kF), "F");
  EXPECT_STREQ(ScoreName(ScoreKind::kR), "R");
}

TEST(ScoreI, MatchesMutualInformation) {
  Dataset d{PairSchema(2, 3)};
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Value p = static_cast<Value>(rng.UniformInt(3));
    Value x = static_cast<Value>((p + rng.UniformInt(2)) % 2);
    std::vector<Value> row = {p, x};
    d.AppendRow(row);
  }
  ProbTable counts = PairCounts(d);
  ProbTable probs = counts;
  probs.Normalize();
  EXPECT_NEAR(ScoreI(counts, d.num_rows()),
              MutualInformation(probs, GenVarId(1)), 1e-12);
}

TEST(ScoreR, IndependentIsZeroCorrelatedIsPositive) {
  // Exactly independent counts.
  ProbTable indep({GenVarId(0), GenVarId(1)}, {2, 2});
  indep.values() = {40, 10, 40, 10};  // rows proportional
  EXPECT_NEAR(ScoreR(indep, 100), 0.0, 1e-12);
  // Perfectly correlated.
  ProbTable corr({GenVarId(0), GenVarId(1)}, {2, 2});
  corr.values() = {50, 0, 0, 50};
  EXPECT_NEAR(ScoreR(corr, 100), 0.5, 1e-12);
}

TEST(ScoreR, RangeIsZeroToHalf) {
  Rng rng(2);
  for (int t = 0; t < 40; ++t) {
    ProbTable counts({GenVarId(0), GenVarId(1)},
                     {2 + int(rng.UniformInt(3)), 2 + int(rng.UniformInt(3))});
    int64_t n = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<double>(rng.UniformInt(30));
      n += static_cast<int64_t>(counts[i]);
    }
    if (n == 0) continue;
    double r = ScoreR(counts, n);
    EXPECT_GE(r, -1e-12);
    EXPECT_LE(r, 0.5 + 1e-12);
  }
}

TEST(ScoreF, RequiresBinaryChild) {
  ProbTable counts({GenVarId(0), GenVarId(1)}, {2, 3});
  EXPECT_THROW(ScoreF(counts, 10), std::invalid_argument);
}

TEST(ScoreF, PerfectCorrelationIsZero) {
  ProbTable counts({GenVarId(0), GenVarId(1)}, {2, 2});
  counts.values() = {50, 0, 0, 50};
  EXPECT_NEAR(ScoreF(counts, 100), 0.0, 1e-12);
}

TEST(ScoreF, ForChildReadsTheTableInPlace) {
  // The child at the first, a middle and the last position, parents of
  // cardinality 2–4: the in-place read equals ScoreF on the reordered table.
  Rng rng(12);
  for (int child_pos = 0; child_pos < 3; ++child_pos) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<int> vars = {GenVarId(0), GenVarId(1), GenVarId(2)};
      std::vector<int> cards(3);
      for (int& c : cards) c = 2 + static_cast<int>(rng.UniformInt(3));
      cards[child_pos] = 2;
      ProbTable counts(vars, cards);
      int64_t n = 0;
      for (size_t i = 0; i < counts.size(); ++i) {
        counts[i] = static_cast<double>(rng.UniformInt(40));
        n += static_cast<int64_t>(counts[i]);
      }
      std::vector<int> order;
      for (int v : vars) {
        if (v != vars[child_pos]) order.push_back(v);
      }
      order.push_back(vars[child_pos]);
      EXPECT_EQ(ScoreFForChild(counts, vars[child_pos], n),
                ScoreF(counts.Reorder(order), n))
          << "child at " << child_pos << ", trial " << trial;
    }
  }
}

TEST(ComputeScore, DispatchConsistent) {
  ProbTable counts({GenVarId(0), GenVarId(1)}, {2, 2});
  counts.values() = {30, 10, 5, 55};
  int64_t n = 100;
  EXPECT_EQ(ComputeScore(ScoreKind::kI, counts, n), ScoreI(counts, n));
  EXPECT_EQ(ComputeScore(ScoreKind::kR, counts, n), ScoreR(counts, n));
  EXPECT_EQ(ComputeScore(ScoreKind::kF, counts, n), ScoreF(counts, n));
}

// Empirical sensitivity property test: for random neighbouring datasets
// (one row changed), |score(D1) − score(D2)| must not exceed the proven
// bound. This is the privacy-critical invariant.
class EmpiricalSensitivity : public ::testing::TestWithParam<int> {};

TEST_P(EmpiricalSensitivity, NeighbourDeltasWithinBounds) {
  Rng rng(300 + GetParam());
  int cx = 2;                                      // child binary (F needs it)
  int cp = 2 + static_cast<int>(rng.UniformInt(3));  // parent 2..4
  const int n = 40;
  Dataset d1{PairSchema(cx, cp)};
  for (int i = 0; i < n; ++i) {
    std::vector<Value> row = {static_cast<Value>(rng.UniformInt(cp)),
                              static_cast<Value>(rng.UniformInt(cx))};
    d1.AppendRow(row);
  }
  // Neighbour: change one row arbitrarily.
  Dataset d2 = d1;
  int victim = static_cast<int>(rng.UniformInt(n));
  d2.Set(victim, 0, static_cast<Value>(rng.UniformInt(cp)));
  d2.Set(victim, 1, static_cast<Value>(rng.UniformInt(cx)));

  ProbTable c1 = PairCounts(d1);
  ProbTable c2 = PairCounts(d2);

  double di = std::abs(ScoreI(c1, n) - ScoreI(c2, n));
  EXPECT_LE(di, SensitivityI(n, true) + 1e-12);

  double dr = std::abs(ScoreR(c1, n) - ScoreR(c2, n));
  EXPECT_LE(dr, SensitivityR(n) + 1e-12);

  double df = std::abs(ScoreF(c1, n) - ScoreF(c2, n));
  EXPECT_LE(df, SensitivityF(n) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomNeighbours, EmpiricalSensitivity,
                         ::testing::Range(0, 40));

// Theorem 4.5, checked exhaustively: on small all-binary datasets, every
// single-tuple substitution moves F of every family (child, parent set) by
// at most SensitivityF(n) = 1/n, scored the way the learner scores it.
TEST(EmpiricalSensitivityF, EverySubstitutionEveryFamily) {
  Rng rng(77);
  double max_delta = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int d = 3 + static_cast<int>(rng.UniformInt(2));
    const int n = 2 + static_cast<int>(rng.UniformInt(11));
    std::vector<Attribute> attrs;
    for (int a = 0; a < d; ++a) {
      attrs.push_back(Attribute::Binary("b" + std::to_string(a)));
    }
    Dataset data{Schema(attrs)};
    for (int i = 0; i < n; ++i) {
      std::vector<Value> row(d);
      for (Value& v : row) v = static_cast<Value>(rng.UniformInt(2));
      data.AppendRow(row);
    }
    // Every family: a child and any subset of the other attributes.
    std::vector<std::vector<GenAttr>> families;
    std::vector<int> children;
    for (int child = 0; child < d; ++child) {
      for (int mask = 0; mask < (1 << d); ++mask) {
        if (mask & (1 << child)) continue;
        std::vector<GenAttr> family;
        for (int a = 0; a < d; ++a) {
          if (mask & (1 << a)) family.push_back(GenAttr{a, 0});
        }
        family.push_back(GenAttr{child, 0});
        families.push_back(family);
        children.push_back(child);
      }
    }
    auto scores = [&](const Dataset& ds) {
      std::vector<double> out;
      for (size_t f = 0; f < families.size(); ++f) {
        out.push_back(ComputeScoreForChild(
            ScoreKind::kF, ds.JointCountsGeneralized(families[f]),
            GenVarId(children[f]), n));
      }
      return out;
    };
    const std::vector<double> base = scores(data);
    for (int i = 0; i < n; ++i) {
      for (int tuple = 0; tuple < (1 << d); ++tuple) {
        Dataset neighbour = data;
        for (int a = 0; a < d; ++a) {
          neighbour.Set(i, a, static_cast<Value>((tuple >> a) & 1));
        }
        const std::vector<double> moved = scores(neighbour);
        for (size_t f = 0; f < families.size(); ++f) {
          double delta = std::abs(moved[f] - base[f]);
          max_delta = std::max(max_delta, delta * n);
          ASSERT_LE(delta, SensitivityF(n) + 1e-12)
              << "trial " << trial << " row " << i << " tuple " << tuple
              << " family " << f;
        }
      }
    }
  }
  // Some substitution reaches the bound: the check is not vacuous.
  EXPECT_NEAR(max_delta, 1.0, 1e-9);
}

// Every single-tuple substitution of small datasets (d attributes of
// cardinality `card`), every family: |Δscore| must stay within
// ScoreSensitivity. Returns the largest |Δscore| / bound seen.
double MaxSubstitutionDeltaOverBound(ScoreKind kind, int card, uint64_t seed) {
  Rng rng(seed);
  const bool binary = card == 2;
  double max_ratio = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const int d = 3;
    const int n = 2 + static_cast<int>(rng.UniformInt(9));
    std::vector<Attribute> attrs;
    for (int a = 0; a < d; ++a) {
      attrs.push_back(Attribute::Categorical("a" + std::to_string(a), card));
    }
    Dataset data{Schema(attrs)};
    for (int i = 0; i < n; ++i) {
      std::vector<Value> row(d);
      for (Value& v : row) v = static_cast<Value>(rng.UniformInt(card));
      data.AppendRow(row);
    }
    std::vector<std::vector<GenAttr>> families;
    std::vector<int> children;
    for (int child = 0; child < d; ++child) {
      for (int mask = 0; mask < (1 << d); ++mask) {
        if (mask & (1 << child)) continue;
        std::vector<GenAttr> family;
        for (int a = 0; a < d; ++a) {
          if (mask & (1 << a)) family.push_back(GenAttr{a, 0});
        }
        family.push_back(GenAttr{child, 0});
        families.push_back(family);
        children.push_back(child);
      }
    }
    auto scores = [&](const Dataset& ds) {
      std::vector<double> out;
      for (size_t f = 0; f < families.size(); ++f) {
        out.push_back(ComputeScoreForChild(
            kind, ds.JointCountsGeneralized(families[f]),
            GenVarId(children[f]), n));
      }
      return out;
    };
    const double bound = ScoreSensitivity(kind, n, binary);
    const std::vector<double> base = scores(data);
    int tuples = 1;
    for (int a = 0; a < d; ++a) tuples *= card;
    for (int i = 0; i < n; ++i) {
      for (int tuple = 0; tuple < tuples; ++tuple) {
        Dataset neighbour = data;
        for (int a = 0, t = tuple; a < d; ++a, t /= card) {
          neighbour.Set(i, a, static_cast<Value>(t % card));
        }
        const std::vector<double> moved = scores(neighbour);
        for (size_t f = 0; f < families.size(); ++f) {
          const double delta = std::abs(moved[f] - base[f]);
          max_ratio = std::max(max_ratio, delta / bound);
          EXPECT_LE(delta, bound + 1e-12)
              << ScoreName(kind) << " trial " << trial << " row " << i
              << " tuple " << tuple << " family " << f;
        }
      }
    }
  }
  return max_ratio;
}

// Lemma 4.1 (binary and general bounds) and Thm 5.3, checked exhaustively;
// some substitution must reach half the bound, so the check is not vacuous.
TEST(EmpiricalSensitivityIR, IBinaryEverySubstitutionEveryFamily) {
  EXPECT_GE(MaxSubstitutionDeltaOverBound(ScoreKind::kI, 2, 78), 0.5);
}

TEST(EmpiricalSensitivityIR, IGeneralEverySubstitutionEveryFamily) {
  EXPECT_GE(MaxSubstitutionDeltaOverBound(ScoreKind::kI, 3, 79), 0.5);
}

TEST(EmpiricalSensitivityIR, REverySubstitutionEveryFamily) {
  EXPECT_GE(MaxSubstitutionDeltaOverBound(ScoreKind::kR, 2, 80), 0.5);
  EXPECT_GE(MaxSubstitutionDeltaOverBound(ScoreKind::kR, 3, 81), 0.5);
}

}  // namespace
}  // namespace privbayes
