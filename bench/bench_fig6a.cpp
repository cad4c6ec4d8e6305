/// bench_fig6a — regenerates Figure 6a: communication volume per node for
/// varying node counts P at fixed N = 16,384, measured points plus the
/// models' leading-factor lines, including the "difficult" non-square rank
/// counts of the inset (greedy 2D grids degrade; grid-optimized COnfLUX
/// stays smooth).
///
/// `--json[=path]` additionally writes a machine-readable summary
/// (per-point wall-clock seconds and volumes) to `path` (default
/// BENCH_simnet.json) so the simulator's perf trajectory can be tracked
/// across PRs; `--trace=path` writes a merged Chrome-trace profile of the
/// measured sweep (one process per point).
///
/// `--virtual` switches to the virtual-time fabric and sweeps P =
/// 512-4096 (or the `-p` list) at the same fixed N, printing *predicted*
/// wall clocks on the `--machine=NAME` preset (default Piz Daint) next to
/// the analytic LogGP phase model; the JSON summary defaults to
/// BENCH_virtual.json.
#include "bench/bench_common.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace conflux;
  using namespace conflux::bench;

  const bool full = bench_scale() == BenchScale::Full;
  const int n = full ? 16384 : 2048;

  BenchArgs args = parse_bench_args(argc, argv, "BENCH_simnet.json");
  if (args.virtual_mode) {
    // Bare `--json` means "the mode's default file"; an explicit
    // `--json=path` is honoured as given.
    if (args.json_defaulted) args.json_path = "BENCH_virtual.json";
    BenchTrace trace(args.trace_path);
    std::cout << "== Figure 6a (virtual time): predicted wall clock vs P "
                 "(N = "
              << n << ") ==\n\n";
    std::vector<std::pair<int, int>> nps;
    for (int p : virtual_ps(args)) nps.emplace_back(n, p);
    const std::vector<BenchPoint> points =
        run_virtual_sweep(args, nps, trace);
    if (!args.json_path.empty())
      write_bench_json(args.json_path, "fig6a-virtual", n, points);
    trace.finish();
    return 0;
  }

  BenchTrace trace(args.trace_path);
  const std::vector<int> ps = full
                                  ? std::vector<int>{4, 16, 64, 256, 1024}
                                  : std::vector<int>{4, 16, 64};

  std::cout << "== Figure 6a: comm volume per node vs P (N = " << n
            << ") ==\n\n";
  std::vector<BenchPoint> points;
  Table table({"P", "impl", "measured MB/node", "model MB/node",
               "leading MB/node", "seconds", "grid"});
  for (int p : ps) {
    for (const verify::Backend& b : table2_backends()) {
      Stopwatch sw;
      const factor::FactorResult res = run_dry(b, n, p, trace.board());
      const double seconds = sw.seconds();
      trace.add(b.name + "/p" + std::to_string(p));
      table.add_row(
          {std::to_string(p), b.name, fmt(res.bytes_per_rank() / 1e6, 4),
           fmt(model_bytes(b, n, p) / p / 1e6, 4),
           fmt(model_bytes(b, n, p, true) / p / 1e6, 4), fmt(seconds, 4),
           res.grid});
      points.push_back({p, n, b.name, seconds, res.bytes_per_rank(),
                        res.total_bytes(), res.total.messages_sent,
                        res.grid});
    }
  }
  table.print(std::cout, 2);

  // The inset: awkward (prime / highly non-square) node counts.
  const std::vector<int> awkward =
      full ? std::vector<int>{60, 96, 101} : std::vector<int>{13, 24};
  std::cout << "\n-- inset: difficult-to-factorize node counts --\n";
  Table inset({"P", "impl", "measured MB/node", "vs nearest pow2", "grid"});
  for (int p : awkward) {
    int p2 = 1;
    while (p2 * 2 <= p) p2 *= 2;
    for (const verify::Backend& b :
         verify::select_backends("LU", {"LibSci", "SLATE", "COnfLUX"})) {
      const factor::FactorResult res = run_dry(b, n, p);
      const factor::FactorResult ref = run_dry(b, n, p2);
      inset.add_row({std::to_string(p), b.name,
                     fmt(res.bytes_per_rank() / 1e6, 4),
                     fmt(res.bytes_per_rank() / ref.bytes_per_rank(), 3) +
                         "x",
                     res.grid});
    }
  }
  inset.print(std::cout, 2);
  std::cout << "\nExpected shape: COnfLUX lowest everywhere and smooth at "
               "awkward P; LibSci/SLATE near-identical; CANDMC highest at "
               "all measured scales.\n";

  if (!args.json_path.empty())
    write_bench_json(args.json_path, "fig6a", n, points);
  trace.finish();
  return 0;
}
