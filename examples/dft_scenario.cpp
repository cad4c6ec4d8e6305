/// dft_scenario — the workload the paper's §8 motivates: Density Functional
/// Theory and other electronic-structure methods factorize dense
/// atom-interaction matrices with N >= 10,000. This example builds a
/// screened-interaction matrix, verifies all four libraries factor it, and
/// compares their communication volumes at an application-relevant scale
/// (dry-run mode for the big sweep, numeric at a reduced size).
///
///   $ ./examples/dft_scenario [P]
#include <cstdlib>
#include <iostream>

#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "support/table.hpp"
#include "verify/commcheck.hpp"

int main(int argc, char** argv) {
  using namespace conflux;
  const int p = argc > 1 ? std::atoi(argv[1]) : 64;

  std::cout << "DFT scenario: atom-interaction matrix factorization\n\n";

  // Part 1 — numerical verification at a reduced size: the interaction
  // matrix (decaying off-diagonals + dominant diagonal) is representative
  // of screened-Coulomb operators.
  {
    const int n = 384;
    const auto a = linalg::generate(n, linalg::MatrixKind::Interaction);
    std::cout << "numeric check at N = " << n << ", P = " << p << ":\n";
    for (const verify::Backend& b : verify::select_backends("LU", {})) {
      lu::LuConfig cfg;
      cfg.n = n;
      cfg.p = p;
      cfg.mode = lu::Mode::Numeric;
      const auto res = lu::make_algorithm(b.name)->run(&a, cfg);
      std::cout << "  " << b.name << ": residual " << res.residual
                << ", growth " << res.growth << "\n";
      if (!(res.residual < 1e-10)) return 1;
    }
  }

  // Part 2 — the communication story at application scale (volume-exact
  // dry runs; values are what Score-P would report on a real cluster).
  {
    const int n = 10240;  // "DFT ... yields sizes of N >= 10,000" (§8)
    std::cout << "\ncommunication volume at N = " << n << ", P = " << p
              << " (dry run):\n";
    Table table({"impl", "total GB", "per-rank MB", "grid"});
    double best = 1e300;
    std::string best_name;
    for (const auto& name : {"LibSci", "SLATE", "CANDMC", "COnfLUX"}) {
      lu::LuConfig cfg;
      cfg.n = n;
      cfg.p = p;
      cfg.mode = lu::Mode::DryRun;
      const auto res = lu::make_algorithm(name)->run(nullptr, cfg);
      if (res.total_bytes() < best) {
        best = res.total_bytes();
        best_name = name;
      }
      table.add_row({name, gb(res.total_bytes()),
                     fmt(res.bytes_per_rank() / 1e6, 4), res.grid});
    }
    table.print(std::cout, 2);
    std::cout << "\n  cheapest: " << best_name
              << " — on communication-bound machines this translates "
                 "directly into time and energy savings.\n";
  }
  return 0;
}
