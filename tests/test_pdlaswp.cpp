// The 2D baselines' pdlaswp plan (lu/scalapack2d.hpp, pdlaswp_moves):
// every process row's view against a brute-force reference that applies
// the kb swaps in order to an identity array of all n rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "lu/scalapack2d.hpp"

namespace conflux::lu {
namespace {

/// All moves of one step: apply the swaps to rows 0..n-1, then list every
/// position whose row is not its own.
std::vector<RowMove> reference_moves(const std::vector<int>& piv, int k0,
                                     const grid::BlockCyclic1D& rowmap) {
  std::vector<int> row(static_cast<std::size_t>(rowmap.extent()));
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < piv.size(); ++i)
    std::swap(row[static_cast<std::size_t>(k0) + i],
              row[static_cast<std::size_t>(piv[i])]);
  std::vector<RowMove> moves;
  for (int pos = 0; pos < rowmap.extent(); ++pos) {
    const int src = row[static_cast<std::size_t>(pos)];
    if (src != pos)
      moves.push_back({rowmap.owner_of(src), rowmap.owner_of(pos), src, pos});
  }
  return moves;
}

auto as_tuple(const RowMove& m) {
  return std::make_tuple(m.osrc, m.odst, m.pos, m.src);
}

/// Pivots for the panel [k0, k0 + kb) of n rows: a mix of no swap, a row
/// inside the panel and a row below it, with one below-panel row picked by
/// two different columns when kb >= 2.
std::vector<int> random_pivots(std::mt19937& rng, int k0, int kb, int n) {
  const int hi = k0 + kb;
  std::vector<int> piv(static_cast<std::size_t>(kb));
  for (int i = 0; i < kb; ++i) {
    const int j = k0 + i;
    switch (rng() % 4) {
      case 0:
        piv[static_cast<std::size_t>(i)] = j;
        break;
      case 1:
        piv[static_cast<std::size_t>(i)] =
            j + static_cast<int>(rng() % static_cast<unsigned>(hi - j));
        break;
      default:
        piv[static_cast<std::size_t>(i)] =
            hi + static_cast<int>(rng() % static_cast<unsigned>(n - hi));
    }
  }
  if (kb >= 2) {
    const int twice = hi + static_cast<int>(rng() % static_cast<unsigned>(n - hi));
    const int a = static_cast<int>(rng() % static_cast<unsigned>(kb - 1));
    const int b = a + 1 + static_cast<int>(rng() % static_cast<unsigned>(kb - 1 - a));
    piv[static_cast<std::size_t>(a)] = twice;
    piv[static_cast<std::size_t>(b)] = twice;
  }
  return piv;
}

TEST(Pdlaswp, RankViewsMatchBruteForceReference) {
  std::mt19937 rng(2024);
  PdlaswpScratch scratch;  // shared across every case, as across steps
  int cases = 0;
  for (int kb : {1, 16, 64}) {
    for (int pr_count : {1, 3, 16, 22}) {
      // Row tiles of the panel width (the driver's layout) and of 3 rows,
      // so a panel spans several tiles and owners.
      for (int block : {kb, 3}) {
        for (int trial = 0; trial < 4; ++trial) {
          const int k0 = kb * (1 + trial);
          const int n = k0 + kb + 5 + static_cast<int>(rng() % 300);
          const grid::BlockCyclic1D rowmap(n, block, pr_count);
          const std::vector<int> piv = random_pivots(rng, k0, kb, n);
          std::vector<RowMove> want = reference_moves(piv, k0, rowmap);
          std::sort(want.begin(), want.end(),
                    [](const RowMove& a, const RowMove& b) {
                      return as_tuple(a) < as_tuple(b);
                    });
          std::vector<std::vector<RowMove>> views;
          std::set<std::tuple<int, int, int, int>> seen;
          for (int pr = 0; pr < pr_count; ++pr) {
            const auto got = pdlaswp_moves(piv, k0, rowmap, pr, scratch);
            views.emplace_back(got.begin(), got.end());
            // The view is exactly the reference moves touching row pr,
            // in (osrc, odst, pos) order.
            std::vector<RowMove> mine;
            for (const RowMove& m : want)
              if (m.osrc == pr || m.odst == pr) mine.push_back(m);
            EXPECT_EQ(views.back(), mine)
                << "kb " << kb << " Pr " << pr_count << " pr " << pr;
            for (const RowMove& m : got) seen.insert(as_tuple(m));
          }
          // The union of the views is the whole reference move set.
          std::set<std::tuple<int, int, int, int>> all;
          for (const RowMove& m : want) all.insert(as_tuple(m));
          EXPECT_EQ(seen, all) << "kb " << kb << " Pr " << pr_count;
          // Sender and receiver see each group move for move, in order.
          for (int src = 0; src < pr_count; ++src) {
            for (int dst = 0; dst < pr_count; ++dst) {
              if (src == dst) continue;
              auto group = [&](const std::vector<RowMove>& view) {
                std::vector<RowMove> g;
                for (const RowMove& m : view)
                  if (m.osrc == src && m.odst == dst) g.push_back(m);
                return g;
              };
              EXPECT_EQ(group(views[static_cast<std::size_t>(src)]),
                        group(views[static_cast<std::size_t>(dst)]))
                  << "kb " << kb << " group " << src << " -> " << dst;
            }
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 4 * 2 * 4);
}

TEST(Pdlaswp, NoSwapsNoMoves) {
  const grid::BlockCyclic1D rowmap(256, 16, 4);
  std::vector<int> piv(16);
  for (int i = 0; i < 16; ++i) piv[static_cast<std::size_t>(i)] = 32 + i;
  PdlaswpScratch scratch;
  for (int pr = 0; pr < 4; ++pr)
    EXPECT_TRUE(pdlaswp_moves(piv, 32, rowmap, pr, scratch).empty());
}

TEST(Pdlaswp, RejectsPivotAboveItsColumn) {
  const grid::BlockCyclic1D rowmap(64, 8, 2);
  const std::vector<int> piv = {9, 7};  // row 9 swaps with row 7 < 9
  PdlaswpScratch scratch;
  EXPECT_THROW((void)pdlaswp_moves(piv, 8, rowmap, 0, scratch),
               ContractViolation);
}

}  // namespace
}  // namespace conflux::lu
