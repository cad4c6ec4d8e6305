/// bench_table2 — regenerates Table 2: total communication volume
/// (measured in the simulator / predicted by the analytic models) for all
/// four LU implementations at N in {4096, 16384} and P in {64, 1024}, with
/// the paper's published values printed alongside.
///
/// Set CONFLUX_BENCH_SCALE=small for a quick reduced-size run.
#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace conflux;
  using namespace conflux::bench;
  reject_arguments(argc, argv);

  const bool full = bench_scale() == BenchScale::Full;
  const std::vector<int> ns = full ? std::vector<int>{4096, 16384}
                                   : std::vector<int>{1024, 2048};
  const std::vector<int> ps = full ? std::vector<int>{64, 1024}
                                   : std::vector<int>{16, 64};

  std::cout << "== Table 2: total communication volume [GB], measured / "
               "modeled (prediction %) ==\n"
            << "   (paper reference values in parentheses where published)\n\n";

  for (int n : ns) {
    std::cout << "Total comm. volume for N = " << n << "\n";
    Table table({"P", "impl", "measured GB", "modeled GB", "pred %",
                 "paper meas", "paper model", "grid", "block", "sim s"});
    for (int p : ps) {
      for (const verify::Backend& b : table2_backends()) {
        const factor::FactorResult res = run_dry(b, n, p);
        const double measured = res.total_bytes();
        const double modeled = model_bytes(b, n, p);
        const double paper_m = paper_table2_gb(n, p, b.name, false);
        const double paper_mod = paper_table2_gb(n, p, b.name, true);
        table.add_row({std::to_string(p), b.name, gb(measured), gb(modeled),
                       fmt(100.0 * modeled / measured, 3) + "%",
                       paper_m > 0 ? gb(paper_m * 1e9) : "-",
                       paper_mod > 0 ? gb(paper_mod * 1e9) : "-", res.grid,
                       std::to_string(res.block), fmt(res.seconds, 2)});
      }
    }
    table.print(std::cout, 2);
    std::cout << "\n";
  }

  std::cout << "Classification row (cf. Table 2):\n"
               "  LibSci : 2D, panel decomp., block size user-specified\n"
               "  SLATE  : 2D, block decomp., default block 16\n"
               "  CANDMC : 2.5D replicated proxy (model: authors' "
               "5N^3/(P sqrt M) [56])\n"
               "  COnfLUX: 1D/2.5D block decomp., block >= P*M/N^2, grid-"
               "optimized\n";
  return 0;
}
