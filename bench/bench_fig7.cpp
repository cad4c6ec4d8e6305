/// bench_fig7 — regenerates Figure 7: COnfLUX's communication reduction vs
/// the second-best implementation, for measured (simulated) configurations
/// and model-based predictions up to P = 262,144 and machine-scale runs
/// (Piz Daint, Summit, TaihuLight), annotated with the second-best library
/// (L = LibSci, S = SLATE, C = CANDMC).
///
/// `--trace=path` writes a merged Chrome-trace profile.
/// `--virtual` sweeps P = 512-4096 (or the `-p` list) at a fixed N on the
/// virtual-time fabric, adding predicted wall clocks (--machine preset) to
/// the volume-reduction story.
#include "bench/bench_common.hpp"
#include "models/machines.hpp"

int main(int argc, char** argv) {
  using namespace conflux;
  using namespace conflux::bench;
  using models::NamedVolume;

  const BenchArgs args = parse_bench_args(argc, argv);
  BenchTrace trace(args.trace_path);

  const bool full = bench_scale() == BenchScale::Full;

  if (args.virtual_mode) {
    const int n = full ? 8192 : 1024;
    std::cout << "== Figure 7 (virtual time): predicted wall clock and "
                 "volume reduction at N = "
              << n << " ==\n\n";
    std::vector<std::pair<int, int>> nps;
    for (int p : virtual_ps(args)) nps.emplace_back(n, p);
    const std::vector<BenchPoint> points =
        run_virtual_sweep(args, nps, trace);
    Table red_t({"P", "reduction", "second best"});
    for (std::size_t i = 0; i < points.size();) {
      std::vector<NamedVolume> entries;
      const int p = points[i].p;
      for (; i < points.size() && points[i].p == p; ++i)
        entries.push_back({points[i].impl, points[i].total_bytes});
      const auto red = models::reduction_vs_second_best(entries);
      red_t.add_row({std::to_string(p), fmt(red.factor, 3) + "x",
                     red.second_best.substr(0, 1)});
    }
    std::cout << "\n";
    red_t.print(std::cout, 2);
    trace.finish();
    return 0;
  }

  std::cout << "== Figure 7: communication reduction vs second-best ==\n\n"
            << "-- measured (simulator) --\n";
  const std::vector<int> ns = full ? std::vector<int>{2048, 4096, 8192}
                                   : std::vector<int>{512, 1024};
  const std::vector<int> ps =
      full ? std::vector<int>{64, 256, 1024} : std::vector<int>{16, 64};

  Table measured({"N", "P", "reduction", "second best"});
  for (int n : ns) {
    for (int p : ps) {
      if (full && n == 8192 && p == 1024) continue;  // heaviest cell: skip
      std::vector<NamedVolume> entries;
      for (const verify::Backend& b : table2_backends()) {
        const factor::FactorResult res = run_dry(b, n, p, trace.board());
        trace.add(b.name + "/n" + std::to_string(n) + "/p" +
                  std::to_string(p));
        entries.push_back({b.name, res.total_bytes()});
      }
      const auto red = models::reduction_vs_second_best(entries);
      measured.add_row({std::to_string(n), std::to_string(p),
                        fmt(red.factor, 3) + "x",
                        red.second_best.substr(0, 1)});
    }
  }
  measured.print(std::cout, 2);

  std::cout << "\n-- predicted (leading-factor models, as in the paper's "
               "extrapolation) --\n";
  Table predicted({"N", "P", "reduction", "second best"});
  for (double n : {4096.0, 16384.0, 65536.0}) {
    for (double p : {4096.0, 16384.0, 65536.0, 262144.0}) {
      const auto inst = models::max_replication_instance(n, p);
      const auto red = models::reduction_vs_second_best(
          models::predict_all(inst, /*leading_only=*/true));
      predicted.add_row({fmt(n, 6), fmt(p, 6), fmt(red.factor, 3) + "x",
                         red.second_best.substr(0, 1)});
    }
  }
  predicted.print(std::cout, 2);

  std::cout << "\n-- machine-scale predictions --\n";
  Table machines_t({"machine", "ranks", "N", "full-model", "leading-model"});
  for (const auto& machine : models::all_machines()) {
    const double n = 16384;
    const auto inst = models::max_replication_instance(n, machine.ranks);
    const auto red_full =
        models::reduction_vs_second_best(models::predict_all(inst));
    const auto red_lead = models::reduction_vs_second_best(
        models::predict_all(inst, true));
    machines_t.add_row({machine.name, std::to_string(machine.ranks), fmt(n, 6),
                        fmt(red_full.factor, 3) + "x (" +
                            red_full.second_best.substr(0, 1) + ")",
                        fmt(red_lead.factor, 3) + "x (" +
                            red_lead.second_best.substr(0, 1) + ")"});
  }
  machines_t.print(std::cout, 2);

  // The paper's §9 observation: CANDMC's model crosses the 2D libraries
  // only deep into extreme scale.
  models::CandmcModel candmc;
  models::LibSciModel libsci;
  const double cross =
      models::crossover_ranks(candmc, libsci, 16384, 1 << 22);
  std::cout << "\nCANDMC-model beats LibSci-model for N=16384 only beyond P ~ "
            << fmt(cross, 6)
            << " ranks (paper, with the authors' constants: ~450,000) — "
               "asymptotic optimality is not enough.\n"
            << "Paper headline: 1.42x at P=1024/N=16384 measured, up to 4.1x "
               "in-sweep, ~2.1x predicted on full-scale Summit.\n";
  trace.finish();
  return 0;
}
