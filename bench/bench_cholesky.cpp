/// bench_cholesky — the COnfCHOX extension table (journal version,
/// arXiv:2108.09337): total communication volume of the 2.5D Cholesky vs
/// the ScaLAPACK-style 2D baseline, measured in the simulator and predicted
/// by the analytic models, with the DAAP I/O lower bound and the COnfLUX
/// LU volume alongside (Cholesky moves strictly less data than LU on the
/// same instance).
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

  std::cout << "== COnfCHOX: 2.5D Cholesky vs ScaLAPACK 2D, total "
               "communication volume [GB] ==\n"
            << "   (bound = Cholesky I/O lower bound, "
               "N^3/(3 P sqrt M) + N(N-1)/(2P) elements per rank)\n\n";

  for (int n : ns) {
    std::cout << "Total comm. volume for N = " << n << "\n";
    Table table({"P", "impl", "measured GB", "modeled GB", "pred %",
                 "bound GB", "x bound", "COnfLUX GB", "grid", "block",
                 "sim s"});
    for (int p : ps) {
      const models::Instance inst = models::max_replication_instance(n, p);
      const double lu_bytes =
          run_dry(verify::find_backend("COnfLUX"), n, p).total_bytes();
      for (const verify::Backend& b : verify::select_backends("Cholesky", {})) {
        const factor::FactorResult res = run_dry(b, n, p);
        const double measured = res.total_bytes();
        const double modeled = model_bytes(b, n, p);
        const double bound_bytes =
            b.lower_bound_elements_per_rank(inst) * p * 8.0;
        table.add_row({std::to_string(p), b.name, gb(measured),
                       gb(modeled), fmt(100.0 * modeled / measured, 3) + "%",
                       gb(bound_bytes), fmt(measured / bound_bytes, 2) + "x",
                       gb(lu_bytes), res.grid, std::to_string(res.block),
                       fmt(res.seconds, 2)});
      }
    }
    table.print(std::cout, 2);
    std::cout << "\n";
  }

  std::cout << "Classification row:\n"
               "  ScaLAPACK: 2D block-cyclic pdpotrf-style, greedy "
               "all-ranks grid, no replication\n"
               "  COnfCHOX : 1D/2.5D block decomp., lazy column-strip "
               "reduction, layer-sliced\n"
               "             row + transposed multicasts, no pivoting, "
               "grid-optimized\n";
  return 0;
}
