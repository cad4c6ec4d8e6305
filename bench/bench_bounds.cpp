/// bench_bounds — regenerates the theory results of §3-§6: the I/O lower
/// bounds the DAAP engine derives for every kernel in the paper, checked
/// against the closed forms, plus the end-to-end §6 LU bound and COnfLUX's
/// measured distance from it (the "1/3 over the lower bound" headline).
#include <cmath>

#include "bench/bench_common.hpp"
#include "daap/bound_solver.hpp"
#include "daap/kernels.hpp"

int main(int argc, char** argv) {
  using namespace conflux;
  using namespace conflux::bench;
  reject_arguments(argc, argv);

  const double n = 1024;
  std::cout << "== §3-§6: derived I/O lower bounds (N = " << n << ") ==\n\n";
  Table table({"kernel", "M", "solver Q", "closed form", "ratio", "rho(s)"});
  for (double m : {256.0, 1024.0, 4096.0}) {
    {
      const auto b = daap::solve_program(daap::matmul(n), m);
      table.add_row({"MMM", fmt(m, 5), fmt(b.q_sequential, 5),
                     fmt(daap::mmm_bound_sequential(n, m), 5),
                     fmt(b.q_sequential / daap::mmm_bound_sequential(n, m), 4),
                     fmt(b.statements[0].rho, 4)});
    }
    {
      const auto b = daap::solve_program(daap::lu_factorization(n), m);
      table.add_row({"LU", fmt(m, 5), fmt(b.q_sequential, 5),
                     fmt(daap::lu_bound_sequential(n, m), 5),
                     fmt(b.q_sequential / daap::lu_bound_sequential(n, m), 4),
                     fmt(b.statements[0].rho, 3) + ", " +
                         fmt(b.statements[1].rho, 4)});
    }
    {
      const auto b = daap::solve_program(daap::cholesky(n), m);
      table.add_row({"Cholesky", fmt(m, 5), fmt(b.q_sequential, 5),
                     fmt(n * n * n / (3.0 * std::sqrt(m)), 5), "-",
                     fmt(b.statements[1].rho, 4)});
    }
    {
      const auto b = daap::solve_program(daap::section41_shared_b(n), m);
      table.add_row({"S4.1 shared-B", fmt(m, 5), fmt(b.q_sequential, 5),
                     fmt(n * n * n / m, 5),
                     fmt(b.q_sequential / (n * n * n / m), 4), "-"});
    }
    {
      const auto b = daap::solve_program(daap::section42_generated_a(n), m);
      table.add_row({"S4.2 generated-A", fmt(m, 5), fmt(b.q_sequential, 5),
                     fmt(n * n * n / m, 5),
                     fmt(b.q_sequential / (n * n * n / m), 4), "-"});
    }
  }
  table.print(std::cout, 2);

  std::cout << "\n== §6 + Lemma 10: parallel LU bound vs COnfLUX measured ==\n";
  Table par({"N", "P", "M", "bound GB", "COnfLUX GB", "ratio"});
  const bool full = bench_scale() == BenchScale::Full;
  const std::vector<std::pair<int, int>> cells =
      full ? std::vector<std::pair<int, int>>{{2048, 64}, {4096, 64},
                                              {4096, 256}}
           : std::vector<std::pair<int, int>>{{512, 16}, {1024, 64}};
  for (const auto& [nn, p] : cells) {
    const auto inst = models::max_replication_instance(nn, p);
    const double bound_bytes =
        daap::lu_bound_parallel(nn, inst.m_elements, p) * p * 8.0;
    const double measured =
        run_dry(verify::find_backend("COnfLUX"), nn, p).total_bytes();
    par.add_row({std::to_string(nn), std::to_string(p),
                 fmt(inst.m_elements, 4), gb(bound_bytes), gb(measured),
                 fmt(measured / bound_bytes, 3) + "x"});
  }
  par.print(std::cout, 2);
  std::cout << "\nPaper: COnfLUX's leading term N^3/(P sqrt M) is exactly "
               "1.5x the lower bound's 2N^3/(3 P sqrt M); measured ratios "
               "include the O(N^2/P) tails.\n";
  return 0;
}
