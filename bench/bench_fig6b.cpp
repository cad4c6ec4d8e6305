/// bench_fig6b — regenerates Figure 6b: weak scaling with constant work per
/// node, N = 3200 * P^(1/3). The 2.5D algorithms (COnfLUX, CANDMC) keep the
/// per-node volume ~constant; the 2D libraries grow like P^(1/6).
///
/// `--trace=path` writes a merged Chrome-trace profile.
/// `--virtual` runs the same weak-scaling rule at P = 512-4096 (or the
/// `-p` list) on the virtual-time fabric, predicting wall clocks on the
/// `--machine=NAME` preset.
#include <cmath>

#include "bench/bench_common.hpp"
#include "grid/grid_opt.hpp"

namespace {
/// Weak-scaling N: block-friendly multiple near n0 * P^(1/3).
int weak_n(double n0, int p) {
  const int raw = static_cast<int>(std::lround(n0 * std::cbrt(p)));
  return std::max(128, (raw / 128) * 128);
}
}  // namespace

int main(int argc, char** argv) {
  using namespace conflux;
  using namespace conflux::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  BenchTrace trace(args.trace_path);

  const bool full = bench_scale() == BenchScale::Full;
  const double n0 = full ? 3200.0 : 640.0;

  if (args.virtual_mode) {
    std::cout << "== Figure 6b (virtual time): weak scaling N = " << n0
              << " * P^(1/3), predicted wall clock ==\n\n";
    std::vector<std::pair<int, int>> nps;
    for (int p : virtual_ps(args)) nps.emplace_back(weak_n(n0, p), p);
    run_virtual_sweep(args, nps, trace);
    trace.finish();
    return 0;
  }

  const std::vector<int> ps = full ? std::vector<int>{8, 27, 64, 216, 512}
                                   : std::vector<int>{8, 27, 64};

  std::cout << "== Figure 6b: weak scaling, N = " << n0
            << " * P^(1/3), comm volume per node ==\n\n";
  Table table({"P", "N", "impl", "measured MB/node", "model MB/node",
               "growth vs first"});
  std::map<std::string, double> first;
  for (int p : ps) {
    const int n = weak_n(n0, p);
    for (const verify::Backend& b : table2_backends()) {
      const factor::FactorResult res = run_dry(b, n, p, trace.board());
      trace.add(b.name + "/p" + std::to_string(p));
      const double per_node = res.bytes_per_rank() / 1e6;
      if (first.find(b.name) == first.end()) first[b.name] = per_node;
      table.add_row({std::to_string(p), std::to_string(n), b.name,
                     fmt(per_node, 4), fmt(model_bytes(b, n, p) / p / 1e6, 4),
                     fmt(per_node / first[b.name], 3) + "x"});
    }
  }
  table.print(std::cout, 2);
  std::cout << "\nExpected shape: 2.5D algorithms (COnfLUX) retain ~constant "
               "volume per node; 2D algorithms (LibSci, SLATE) grow ~P^(1/6) "
               "— cf. the paper's Fig. 6b.\n";
  trace.finish();
  return 0;
}
