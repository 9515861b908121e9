#include "core/score_f_dp.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"

namespace privbayes {

namespace {

// A parent value that can lower the objective when sent to X = 0: weight w
// (its count on the majority side, clamped at H) exceeds its cost c (its
// count on the minority side), and c > 0.
struct Item {
  int32_t weight;
  int32_t cost;
};

// One item applied to g over [0, top]: g'[C] = max(g[C], min(H, g[C − c] +
// w)), the largest clamped weight within cost C with the item or without it.
void Step(const int32_t* __restrict g, int32_t* __restrict next, Item item,
          int32_t top, int32_t half) {
  std::copy(g, g + item.cost, next);
  for (int32_t c = item.cost; c <= top; ++c) {
    next[c] = std::max(g[c], std::min(half, g[c - item.cost] + item.weight));
  }
}

// −min[(n − 2a)₊ + (n − 2b)₊] / (2n): the one rounding step of both paths.
double FromObjective(int64_t twice_n_objective, int64_t n) {
  return -static_cast<double>(twice_n_objective) /
         (2.0 * static_cast<double>(n));
}

}  // namespace

double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n) {
  PB_THROW_IF(n <= 0, "F requires positive n");
  PB_THROW_IF(n >= (int64_t{1} << 30), "F requires n < 2^30, got " << n);
  // Counts are clamped at n: a count that large saturates its side on its
  // own, and the clamp keeps the sums exact about which side is at most n/2.
  auto clamp = [n](int64_t count) { return std::min(count, n); };
  int64_t sum0 = 0, sum1 = 0;
  for (const FColumn& col : columns) {
    PB_CHECK(col.first >= 0 && col.second >= 0);
    sum0 += clamp(col.first);
    sum1 += clamp(col.second);
  }
  PB_THROW_IF(2 * std::min(sum0, sum1) > n,
              "F requires one side of X to hold at most n/2, got "
                  << sum0 << " and " << sum1 << " with n = " << n);
  // Orient so that side 1 is the minority: 2·A1 <= n.
  const bool flip = sum1 > sum0;
  const int64_t minority = flip ? sum0 : sum1;
  const int32_t half = static_cast<int32_t>((n + 1) / 2);  // H

  // Only values with weight > cost can help; a cost of 0 is free weight.
  int64_t free = 0, weight_sum = 0, cost_sum = 0;
  std::vector<Item> items;
  for (const FColumn& col : columns) {
    const int64_t w = clamp(flip ? col.second : col.first);
    const int64_t c = clamp(flip ? col.first : col.second);
    if (w <= c) continue;
    if (c == 0) {
      free += w;
      continue;
    }
    items.push_back({static_cast<int32_t>(std::min<int64_t>(w, half)),
                     static_cast<int32_t>(c)});
    weight_sum += w;
    cost_sum += c;
  }
  // The objective minus its constant n − 2·A1: (n − 2W)₊ + 2C.
  const int64_t constant = n - 2 * minority;
  if (free >= half) return FromObjective(constant, n);
  if (2 * (free + weight_sum) <= n) {
    // (n − 2W)₊ never clamps, so every item lowers the objective by
    // 2(w − c): send them all.
    return FromObjective(constant + n - 2 * (free + weight_sum) + 2 * cost_sum,
                         n);
  }

  // Cheapest items first: the upper bound below takes their best prefix,
  // and the costs reached so far grow as slowly as they can.
  std::sort(items.begin(), items.end(),
            [](const Item& x, const Item& y) { return x.cost < y.cost; });
  int64_t upper = n - 2 * free;
  {
    int64_t w = free, c = 0;
    for (const Item& item : items) {
      w += item.weight;
      c += item.cost;
      upper = std::min(upper, std::max<int64_t>(0, n - 2 * w) + 2 * c);
      if (w >= half) break;
    }
  }
  // An optimum costs at most upper / 2, so C beyond that, and any item
  // costing more, can be left out.
  const int32_t cmax =
      static_cast<int32_t>(std::min<int64_t>(cost_sum, upper / 2));
  std::unique_ptr<int32_t[]> scratch =
      std::make_unique_for_overwrite<int32_t[]>(2 * (size_t{1} + cmax));
  int32_t* g = scratch.get();
  int32_t* next = g + cmax + 1;
  // g is flat beyond top, the total cost of the items so far, so only
  // [0, top] is stored and updated.
  g[0] = static_cast<int32_t>(free);
  int32_t top = 0;
  for (const Item& item : items) {
    if (item.cost > cmax) break;
    const int32_t new_top = std::min(cmax, top + item.cost);
    std::fill(g + top + 1, g + new_top + 1, g[top]);
    top = new_top;
    Step(g, next, item, top, half);
    std::swap(g, next);
  }
  const int32_t n32 = static_cast<int32_t>(n);
  int32_t best = static_cast<int32_t>(upper);
  for (int32_t c = 0; c <= top; ++c) {
    best = std::min(best, std::max(0, n32 - 2 * g[c]) + 2 * c);
  }
  return FromObjective(constant + best, n);
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
