/// bench_ablation — measures the design choices DESIGN.md calls out (§7.2,
/// §7.3): replication depth c, block size v, grid optimization at awkward
/// rank counts, the cost of NOT slicing panel multicasts by layer (the
/// CANDMC-style full-panel broadcast), and the pivoting-strategy sweep
/// answering the Tang critique (arXiv 2404.06713): partial (LibSci) vs
/// COnfLUX's butterfly tournament vs CALU's reduction-tree tournament,
/// crossed with the adversarial matrix families and several grids.
///
/// Set CONFLUX_BENCH_SCALE=small for a quick reduced-size run.
#include "bench/bench_common.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"

int main() {
  using namespace conflux;
  using namespace conflux::bench;

  const bool full = bench_scale() == BenchScale::Full;
  const int n = full ? 4096 : 1024;
  const int p = 64;
  const verify::Backend conflux_lu = verify::find_backend("COnfLUX");
  const verify::Backend libsci = verify::find_backend("LibSci");
  constexpr factor::Mode kDry = factor::Mode::DryRun;

  std::cout << "== Ablation 1: replication depth c (N = " << n
            << ", P = " << p << ") ==\n";
  Table crep({"c", "grid", "total GB", "vs best"});
  double best = 1e300;
  std::vector<std::pair<int, factor::FactorResult>> rows;
  for (int c : {1, 2, 4, 8, 16}) {
    const auto res = conflux_lu.run(
        nullptr, {.n = n, .p = p, .mode = kDry, .force_layers = c});
    best = std::min(best, res.total_bytes());
    rows.emplace_back(c, res);
  }
  for (const auto& [c, res] : rows)
    crep.add_row({std::to_string(c), res.grid, gb(res.total_bytes()),
                  fmt(res.total_bytes() / best, 3) + "x"});
  crep.print(std::cout, 2);
  std::cout << "  (U-shaped: too little replication wastes multicast "
               "bandwidth, too much wastes reduction bandwidth; optimum "
               "c ~ P^(1/3).)\n\n";

  std::cout << "== Ablation 2: block size v ==\n";
  Table vtab({"v", "total GB", "messages", "note"});
  for (int v : {16, 32, 64, 128, 256}) {
    if (n % v != 0) continue;
    const auto res =
        conflux_lu.run(nullptr, {.n = n, .p = p, .block = v, .mode = kDry});
    vtab.add_row({std::to_string(v), gb(res.total_bytes()),
                  std::to_string(res.total.messages_sent),
                  v <= 32 ? "volume-lean, latency-heavy"
                          : "A00 broadcast term grows ~ N*v*P"});
  }
  vtab.print(std::cout, 2);
  std::cout << "\n";

  std::cout << "== Ablation 3: processor grid optimization at awkward P "
               "(N = " << n << ") ==\n";
  Table gtab({"P", "impl", "per-node MB", "grid", "idle"});
  for (int pa : full ? std::vector<int>{60, 61, 96} : std::vector<int>{13, 24}) {
    {
      const auto res = conflux_lu.run(
          nullptr,
          {.n = n, .p = pa, .mode = kDry, .grid_optimization = true});
      gtab.add_row({std::to_string(pa), "COnfLUX(opt)",
                    fmt(res.bytes_per_rank() / 1e6, 4), res.grid,
                    std::to_string(pa - res.ranks_used)});
    }
    {
      const auto res = run_dry(libsci, n, pa);
      gtab.add_row({std::to_string(pa), "LibSci(greedy)",
                    fmt(res.bytes_per_rank() / 1e6, 4), res.grid, "0"});
    }
  }
  gtab.print(std::cout, 2);
  std::cout << "  (Fig. 6a inset: greedy divisor grids degrade toward 1 x P "
               "at primes; the optimizer trades a few idle ranks for a "
               "near-square 2.5D grid.)\n\n";

  std::cout << "== Ablation 4: layer-sliced multicast vs full-panel "
               "replication (COnfLUX vs CANDMC proxy) ==\n";
  Table stab({"N", "P", "COnfLUX GB", "CANDMC GB", "penalty"});
  for (int pa : {16, 64}) {
    const auto cx = run_dry(conflux_lu, n, pa);
    const auto cd = run_dry(verify::find_backend("CANDMC"), n, pa);
    stab.add_row({std::to_string(n), std::to_string(pa),
                  gb(cx.total_bytes()), gb(cd.total_bytes()),
                  fmt(cd.total_bytes() / cx.total_bytes(), 3) + "x"});
  }
  stab.print(std::cout, 2);
  std::cout << "  (Receiving full v-wide panels on every layer — instead of "
               "each layer's v/c slice — costs ~sqrt(c) extra at measured "
               "scales; row masking vs physical swapping adds the rest.)\n\n";

  std::cout << "== Ablation 5: 2D panel width nb (LibSci schedule) ==\n";
  Table ntab({"nb", "total GB", "messages"});
  for (int nb : {16, 32, 64, 128}) {
    if (n % nb != 0) continue;
    const auto res =
        libsci.run(nullptr, {.n = n, .p = p, .block = nb, .mode = kDry});
    ntab.add_row({std::to_string(nb), gb(res.total_bytes()),
                  std::to_string(res.total.messages_sent)});
  }
  ntab.print(std::cout, 2);
  std::cout << "  (2D volume is nb-insensitive at leading order — the "
               "N^2/sqrt(P) broadcasts dominate.)\n\n";

  std::cout << "== Ablation 6: pivoting strategies x adversarial kinds "
               "(Tang critique, arXiv 2404.06713) ==\n";
  // Partial pivoting (LibSci), COnfLUX's butterfly tournament, and CALU's
  // reduction-tree tournament on every adversarial family. Numeric runs
  // give growth + residual; dry runs at the sweep grids give the volumes.
  const std::vector<std::string> strategies = {"LibSci", "COnfLUX", "CALU"};

  const int adv_n = pick(256, 128);
  const int adv_p = 8;
  Table ptab({"strategy", "kind", "growth", "residual/eps", "off-natural"});
  for (const std::string& algo : strategies) {
    for (linalg::MatrixKind kind : linalg::adversarial_kinds()) {
      const linalg::Matrix a = linalg::generate(adv_n, kind, 131);
      const auto res = lu::make_algorithm(algo)->run(
          &a, {.n = adv_n, .p = adv_p, .mode = factor::Mode::Numeric});
      ptab.add_row({algo, linalg::to_string(kind), fmt(res.growth, 3),
                    fmt(res.residual_eps, 2),
                    std::to_string(res.pivot_stats.off_natural)});
    }
  }
  ptab.print(std::cout, 2);
  std::cout << "  (Wilkinson defeats every row-pivoting strategy — partial "
               "and tournament alike hit 2^(n-1); on the other families all "
               "three stay at O(1) growth. Tournament pivoting is about "
               "communication, not extra stability.)\n\n";

  const int piv_n = full ? 4096 : 1024;
  Table wtab({"N", "P", "c", "LibSci GB", "COnfLUX GB", "CALU GB",
              "CALU/COnfLUX"});
  for (const auto& [pa, c] :
       std::vector<std::pair<int, int>>{{16, 0}, {64, 0}, {64, 4}}) {
    const factor::FactorConfig cfg{
        .n = piv_n, .p = pa, .mode = kDry, .force_layers = c};
    const auto lib = libsci.run(nullptr, cfg);
    const auto conflux = conflux_lu.run(nullptr, cfg);
    const auto calu = verify::find_backend("CALU").run(nullptr, cfg);
    const double ratio = calu.total_bytes() / conflux.total_bytes();
    const std::string layers = c == 0 ? "auto" : std::to_string(c);
    wtab.add_row({std::to_string(piv_n), std::to_string(pa), layers,
                  gb(lib.total_bytes()), gb(conflux.total_bytes()),
                  gb(calu.total_bytes()), fmt(ratio, 4) + "x"});
  }
  wtab.print(std::cout, 2);
  std::cout << "  (The reduction tree sends Px-1 candidate blocks per panel "
               "vs the butterfly's ~Px log2 Px: CALU tracks COnfLUX from "
               "below, always within the 1.1x acceptance band.)\n";
  return 0;
}
