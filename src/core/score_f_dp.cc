#include "core/score_f_dp.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "common/check.h"

namespace privbayes {

namespace {

// g past the reach holds this: g + c1 stays negative for every c1 <= H <
// 2^30, so the max() in the update always takes the indexed side there.
constexpr int32_t kUnreached = -(int32_t{1} << 30);

// One parent value applied to g over [0, new_top]: c0 is its count on the
// side g is indexed by, c1 on the other. Entries of g in (top, new_top] hold
// kUnreached. For a < c0 the indexed-side choice reads g[0].
void Step(const int32_t* __restrict g, int32_t* __restrict next, int32_t c0,
          int32_t c1, int32_t new_top, int32_t half) {
  const int32_t split = std::min(c0, new_top + 1);
  const int32_t g0 = g[0];
  for (int32_t a = 0; a < split; ++a) {
    next[a] = std::min(half, std::max(g[a] + c1, g0));
  }
  for (int32_t a = split; a <= new_top; ++a) {
    next[a] = std::min(half, std::max(g[a] + c1, g[a - c0]));
  }
}

// −min[(n − 2a)₊ + (n − 2b)₊] / (2n): the one rounding step of both paths.
double FromObjective(int64_t twice_n_objective, int64_t n) {
  return -static_cast<double>(twice_n_objective) /
         (2.0 * static_cast<double>(n));
}

// A parent value's two counts, the one on the side g is indexed by first.
struct Cell {
  int32_t indexed;
  int32_t other;
};

// Orders `cells` by the bit width of the indexed count, ascending: a
// counting sort over 31 buckets, within a factor of two of sorted order and
// without the branch misses of a comparison sort. Returns the DP's work in
// that order: the sum over the cells of the reach after each.
int64_t OrderAndCost(std::vector<Cell>& cells, int32_t half) {
  auto bucket = [](const Cell& c) {
    return std::bit_width(static_cast<uint32_t>(c.indexed));
  };
  size_t start[33] = {};
  for (const Cell& c : cells) ++start[bucket(c) + 1];
  for (int b = 1; b < 33; ++b) start[b] += start[b - 1];
  std::vector<Cell> ordered(cells.size());
  for (const Cell& c : cells) ordered[start[bucket(c)]++] = c;
  cells.swap(ordered);
  int64_t reach = 0, cost = 0;
  for (const Cell& c : cells) {
    reach = std::min<int64_t>(half, reach + c.indexed);
    cost += reach + 1;
  }
  return cost;
}

}  // namespace

double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n) {
  PB_THROW_IF(n <= 0, "F requires positive n");
  PB_THROW_IF(n >= (int64_t{1} << 30), "F requires n < 2^30, got " << n);
  const int32_t n32 = static_cast<int32_t>(n);
  const int32_t half = (n32 + 1) / 2;  // H: a >= H zeroes (n − 2a)₊
  // Counts saturate at H like the coordinates they are added to; empty
  // parent values change nothing.
  std::vector<Cell> by0, by1;
  by0.reserve(columns.size());
  by1.reserve(columns.size());
  for (const FColumn& col : columns) {
    PB_CHECK(col.first >= 0 && col.second >= 0);
    const int32_t c0 = static_cast<int32_t>(std::min<int64_t>(col.first, half));
    const int32_t c1 =
        static_cast<int32_t>(std::min<int64_t>(col.second, half));
    if (c0 == 0 && c1 == 0) continue;
    by0.push_back({c0, c1});
    by1.push_back({c1, c0});
  }
  // The objective is symmetric in a and b, and the reachable set does not
  // depend on the order of the parent values. Small counts first keep the
  // reach short for as long as possible; index g by whichever side then
  // costs less.
  const int64_t cost0 = OrderAndCost(by0, half);
  const int64_t cost1 = OrderAndCost(by1, half);
  const std::vector<Cell>& cells = cost0 <= cost1 ? by0 : by1;

  const size_t width = static_cast<size_t>(half) + 1;
  std::unique_ptr<int32_t[]> scratch =
      std::make_unique_for_overwrite<int32_t[]>(2 * width);
  int32_t* g = scratch.get();
  int32_t* next = g + width;
  g[0] = 0;  // only the empty assignment (0, 0) so far
  int32_t top = 0;
  for (const Cell& c : cells) {
    const int32_t new_top = std::min(half, top + c.indexed);
    std::fill(g + top + 1, g + new_top + 1, kUnreached);
    Step(g, next, c.indexed, c.other, new_top, half);
    std::swap(g, next);
    top = new_top;
    // Early exit: some assignment already zeroes both penalty terms. g[H]
    // is meaningful only once the reach is H.
    if (top == half && g[half] == half) return 0.0;
  }
  // Every a <= top is reachable (all mass toward the indexed side reaches
  // top), so g has no unreached entries here.
  int32_t best = 2 * n32;
  for (int32_t a = 0; a <= top; ++a) {
    best = std::min(best, std::max(0, n32 - 2 * a) +
                              std::max(0, n32 - 2 * g[a]));
  }
  return FromObjective(best, n);
}

double ScoreFBruteForce(std::span<const FColumn> columns, int64_t n) {
  PB_THROW_IF(columns.size() > 24, "brute force limited to 24 columns");
  PB_THROW_IF(n <= 0, "F requires positive n");
  size_t combos = size_t{1} << columns.size();
  int64_t best = 2 * n;
  for (size_t mask = 0; mask < combos; ++mask) {
    int64_t a = 0, b = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (mask & (size_t{1} << c)) {
        a += columns[c].first;
      } else {
        b += columns[c].second;
      }
    }
    best = std::min(best, std::max<int64_t>(0, n - 2 * a) +
                              std::max<int64_t>(0, n - 2 * b));
  }
  return FromObjective(best, n);
}

}  // namespace privbayes
