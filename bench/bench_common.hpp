/// \file bench_common.hpp
/// Shared helpers for the reproduction harness: dry runs of registered
/// backends (verify/commcheck.hpp), the paper's reference values for
/// side-by-side printing, and the `--trace` / `--virtual` machinery the
/// figure benches share.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/cost_model.hpp"
#include "models/machines.hpp"
#include "models/predictions.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "tools/cli.hpp"
#include "verify/commcheck.hpp"

namespace conflux::bench {

/// Dry-run registered backend `b` at (n, p) on `fabric` (the host clock by
/// default; verify::virtual_fabric for a predicted wall clock). Pass a
/// telemetry board (see BenchTrace) to profile the run with ConfScope spans.
inline factor::FactorResult run_dry(const verify::Backend& b, int n, int p,
                                    telemetry::TelemetryBoard* tel = nullptr,
                                    const simnet::FabricSpec& fabric = {}) {
  return b.run(nullptr, {.n = n,
                         .p = p,
                         .mode = factor::Mode::DryRun,
                         .fabric = fabric,
                         .telemetry = tel});
}

/// The figure benches' CLI flags: `--trace=path` (merged Chrome-trace/
/// Perfetto profile of the measured runs), `--virtual` (virtual-time sweep
/// at large P with predicted wall clocks), `--machine=NAME` (LogGP preset
/// for --virtual; see models/machines.hpp) and `-p P[,P...]` (override the
/// --virtual rank sweep).
struct BenchArgs {
  std::string trace_path;  ///< empty = no Chrome trace
  bool virtual_mode = false;      ///< --virtual: LogGP fiber sweep
  std::string machine = "Piz Daint";  ///< --machine= preset name
  std::vector<int> ps;     ///< -p override for the --virtual sweep
};

/// Parse the flags above. An unknown argument, a `-p` without a valid list
/// or an unknown `--machine` preset is a usage error (exit 2).
inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace=", 0) == 0)
        args.trace_path = arg.substr(8);
      else if (arg == "--virtual")
        args.virtual_mode = true;
      else if (arg.rfind("--machine=", 0) == 0)
        args.machine = models::machine_by_name(arg.substr(10)).name;
      else if (arg == "-p") {
        if (++i == argc) throw std::invalid_argument("-p needs a list");
        args.ps = cli::parse_int_list(argv[i], 1);
      } else
        throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\nusage: " << argv[0]
              << " [--trace=FILE] [--virtual] [--machine=NAME] "
                 "[-p P[,P...]]\n";
    std::exit(2);
  }
  return args;
}

/// For the benches that take no flags: any argument is a usage error (exit
/// 2), so a mistyped flag cannot silently start the default sweep.
inline void reject_arguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::cerr << argv[0] << ": unknown argument '" << argv[1]
            << "'\nusage: " << argv[0] << " (takes no arguments)\n";
  std::exit(2);
}

/// One virtual-sweep point: what Fig. 7's reduction-vs-second-best reads.
struct BenchPoint {
  int p = 0;
  std::string impl;
  double total_bytes = 0;
};

/// Accumulates one TelemetryBoard per measured run into a merged Chrome
/// trace (one process per labelled run, one thread per rank). Constructed
/// with an empty path, every call is a no-op and board() returns null, so
/// untraced bench runs stay telemetry-free.
class BenchTrace {
 public:
  explicit BenchTrace(const std::string& path) : path_(path) {
    if (path_.empty()) return;
    os_ = std::make_unique<std::ofstream>(path_);
    writer_ = std::make_unique<telemetry::ChromeTraceWriter>(*os_);
  }

  /// The board to pass to run_dry / FactorConfig::telemetry (null when
  /// tracing is off). The attached run's Network resets it, so call add()
  /// after each run before starting the next.
  [[nodiscard]] telemetry::TelemetryBoard* board() {
    return writer_ ? &board_ : nullptr;
  }

  /// Flush the last run's spans as process `label`.
  void add(const std::string& label) {
    if (writer_) writer_->add_process(pid_++, label, board_);
  }

  void finish() {
    if (!writer_) return;
    writer_->finish();
    writer_.reset();
    os_.reset();
    std::cout << "wrote Chrome trace to " << path_ << "\n";
  }

 private:
  std::string path_;
  telemetry::TelemetryBoard board_;
  std::unique_ptr<std::ofstream> os_;
  std::unique_ptr<telemetry::ChromeTraceWriter> writer_;
  int pid_ = 0;
};

/// Volume-model prediction in bytes for backend `b` under the
/// max-replication memory rule; `leading_only` keeps the leading term.
inline double model_bytes(const verify::Backend& b, double n, double p,
                          bool leading_only = false) {
  const models::Instance inst = models::max_replication_instance(n, p);
  const auto m = b.volume_model();
  return leading_only ? m->leading_elements_per_rank(inst) * p * 8.0
                      : m->total_bytes(inst);
}

/// Table 2's published measured/modeled totals in GB, keyed by
/// (N, P, implementation) — printed next to our numbers for comparison.
inline double paper_table2_gb(int n, int p, const std::string& algo,
                              bool modeled) {
  static const std::map<std::tuple<int, int, std::string>,
                        std::pair<double, double>>
      kPaper = {
          {{4096, 64, "LibSci"}, {1.17, 1.21}},
          {{4096, 64, "SLATE"}, {1.18, 1.21}},
          {{4096, 64, "CANDMC"}, {2.5, 4.9}},
          {{4096, 64, "COnfLUX"}, {1.11, 1.08}},
          {{4096, 1024, "LibSci"}, {4.45, 4.43}},
          {{4096, 1024, "SLATE"}, {4.35, 4.43}},
          {{4096, 1024, "CANDMC"}, {9.3, 12.13}},
          {{4096, 1024, "COnfLUX"}, {3.13, 3.07}},
          {{16384, 64, "LibSci"}, {18.79, 19.33}},
          {{16384, 64, "SLATE"}, {18.84, 19.33}},
          {{16384, 64, "CANDMC"}, {39.8, 78.74}},
          {{16384, 64, "COnfLUX"}, {17.61, 17.19}},
          {{16384, 1024, "LibSci"}, {70.91, 70.87}},
          {{16384, 1024, "SLATE"}, {71.1, 70.87}},
          {{16384, 1024, "CANDMC"}, {144, 194.09}},
          {{16384, 1024, "COnfLUX"}, {45.42, 44.77}},
      };
  const auto it = kPaper.find({n, p, algo});
  if (it == kPaper.end()) return 0.0;
  return modeled ? it->second.second : it->second.first;
}

/// The four LU backends of Table 2 and Figs. 6-7, in table order.
inline const std::vector<verify::Backend>& table2_backends() {
  static const std::vector<verify::Backend> kBackends =
      verify::select_backends("LU", {"LibSci", "SLATE", "CANDMC", "COnfLUX"});
  return kBackends;
}

/// Scale-dependent parameter pick.
template <typename T>
T pick(T full, T small) {
  return bench_scale() == BenchScale::Full ? full : small;
}

/// The rank sweep a `--virtual` bench runs: the issue's P = 512-4096
/// trajectory unless the user narrowed it with `-p`.
inline std::vector<int> virtual_ps(const BenchArgs& args) {
  return args.ps.empty() ? std::vector<int>{512, 1024, 2048, 4096} : args.ps;
}

/// Shared `--virtual` section: run every implementation over the given
/// (n, p) points on the virtual-time fabric and print the predicted
/// wall-clock trajectory. Host seconds show what the fiber scheduler
/// actually cost.
inline std::vector<BenchPoint> run_virtual_sweep(
    const BenchArgs& args, const std::vector<std::pair<int, int>>& nps,
    BenchTrace& trace) {
  const models::Machine m = models::machine_by_name(args.machine);
  std::cout << "-- virtual time: " << m.name << " (alpha " << m.alpha_s * 1e6
            << " us, beta " << 1.0 / m.beta_s_per_byte / 1e9 << " GB/s) --\n";
  Table table(
      {"P", "N", "impl", "predicted s", "MB/node", "host s", "grid"});
  std::vector<BenchPoint> points;
  for (const auto& [n, p] : nps) {
    for (const verify::Backend& b : table2_backends()) {
      Stopwatch sw;
      const factor::FactorResult res =
          run_dry(b, n, p, trace.board(), verify::virtual_fabric(m));
      const double host = sw.seconds();
      trace.add(b.name + "/n" + std::to_string(n) + "/p" + std::to_string(p));
      table.add_row({std::to_string(p), std::to_string(n), b.name,
                     fmt(res.predicted_seconds, 4),
                     fmt(res.bytes_per_rank() / 1e6, 4), fmt(host, 4),
                     res.grid});
      points.push_back({p, b.name, res.total_bytes()});
    }
  }
  table.print(std::cout, 2);
  return points;
}

}  // namespace conflux::bench
