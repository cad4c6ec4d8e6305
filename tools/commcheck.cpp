/// commcheck — the static communication-schedule verifier CLI.
///
/// Dry-runs registered factorization backends with a trace recorder
/// attached, lifts the recorded schedule into the CommGraph IR
/// (src/verify), and runs the analysis passes: send/recv matching,
/// deadlock freedom, tag hygiene, volume conservation against CommVolume
/// stats and the family's I/O lower bound, plus the buffer-ownership lint.
///
/// Usage:
///   commcheck --all                 sweep every registered backend over the
///                                   default (P, N, layers) matrix
///   commcheck --family=LU --backend=COnfLUX --n=256 --p=8 --layers=2
///                                   verify one configuration
///   commcheck --list                print the registered backends
///   --n=/--p= accept comma-separated lists in --all mode; --verbose prints
///   one line per verified configuration instead of only failures.
///
/// Exit status: 0 when every checked schedule is clean, 1 when any
/// diagnostic of Error severity fired, 2 on usage errors.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "simnet/trace.hpp"
#include "verify/commcheck.hpp"

namespace {

using conflux::verify::Backend;
using conflux::verify::CheckConfig;
using conflux::verify::CheckResult;

void print_usage(std::ostream& os) {
  os << "usage: commcheck [--all] [--family=LU|Cholesky] [--backend=NAME]\n"
        "                 [--n=N[,N...]] [--p=P[,P...]] [--layers=C]\n"
        "                 [--block=V] [--list] [--verbose] [--help]\n"
        "\n"
        "Statically verifies dry-run communication schedules: send/recv\n"
        "matching, deadlock freedom, tag hygiene, volume conservation\n"
        "(cross-checked against CommVolume stats and the family's I/O lower\n"
        "bound), and buffer-ownership lint.\n"
        "\n"
        "  --all        sweep every registered backend (default N=128,256;\n"
        "               P=4,8,9; layers auto,1,2 where the backend has them)\n"
        "  --family=F   restrict to one family (LU or Cholesky)\n"
        "  --backend=B  restrict to one backend name (e.g. COnfLUX)\n"
        "  --n=LIST     matrix dimensions to check (comma-separated)\n"
        "  --p=LIST     rank counts to check (comma-separated)\n"
        "  --layers=C   force the 2.5D replication depth c (single run only)\n"
        "  --block=V    force the block size (single run only; 0 = auto)\n"
        "  --list       print the registered (family, backend) table\n"
        "  --verbose    print every verified configuration, not just failures\n"
        "  --seed-defect=CLASS\n"
        "               verify a deliberately defective schedule instead —\n"
        "               CLASS is deadlock, orphan-recv, tag-collision or\n"
        "               volume — and exit non-zero when (i.e. prove that)\n"
        "               the defect is detected\n"
        "  --help       this text\n";
}

/// Build the seeded defective schedule for --seed-defect and report it: the
/// demonstration (and CTest WILL_FAIL harness) that each defect class the
/// verifier claims to catch actually produces a located diagnostic and a
/// non-zero exit.
int run_seeded_defect(const std::string& which) {
  using conflux::simnet::TraceRecorder;
  TraceRecorder rec(2);
  conflux::verify::VolumeExpectation expect;
  if (which == "deadlock") {
    // Head-to-head exchange: both ranks receive before they send.
    rec.record_recv(0, 1, 11, 8);
    rec.record_send(0, 1, 10, 8);
    rec.record_recv(1, 0, 10, 8);
    rec.record_send(1, 0, 11, 8);
    expect.total.bytes_sent = 16;
    expect.total.messages_sent = 2;
  } else if (which == "orphan-recv") {
    // Rank 1 waits for a message nobody ever sends.
    rec.record_recv(1, 0, 6, 8);
  } else if (which == "tag-collision") {
    // Two messages share one (src, dst, tag) channel with no ordering.
    rec.record_send(0, 1, 9, 8);
    rec.record_send(0, 1, 9, 8);
    rec.record_recv(1, 0, 9, 8);
    rec.record_recv(1, 0, 9, 8);
    expect.total.bytes_sent = 16;
    expect.total.messages_sent = 2;
  } else if (which == "volume") {
    // Stats board disagreeing with the schedule (accounting bug).
    rec.record_send(0, 1, 3, 100);
    rec.record_recv(1, 0, 3, 100);
    expect.total.bytes_sent = 142;
    expect.total.messages_sent = 1;
  } else {
    std::cerr << "commcheck: unknown defect class '" << which
              << "' (deadlock, orphan-recv, tag-collision, volume)\n";
    return 2;
  }

  const auto graph = conflux::verify::CommGraph::build(rec);
  const auto diags = conflux::verify::run_all_passes(graph, expect);
  std::cout << "seeded defect '" << which << "': " << diags.size()
            << " diagnostic(s)\n";
  for (const conflux::verify::Diagnostic& d : diags)
    std::cout << "  " << to_string(d) << "\n";
  if (!conflux::verify::has_errors(diags)) {
    std::cout << "seeded defect was NOT detected — the verifier is broken\n";
    return 0;  // clean exit = the WILL_FAIL harness flags the regression
  }
  return 1;
}

int report(const std::vector<CheckResult>& results, bool verbose) {
  int clean = 0;
  int failed = 0;
  for (const CheckResult& r : results) {
    if (r.ok()) {
      ++clean;
      if (verbose) std::cout << "ok   " << r.describe() << "\n";
      continue;
    }
    ++failed;
    std::cout << "FAIL " << r.describe() << "\n";
    for (const conflux::verify::Diagnostic& d : r.diags)
      std::cout << "  " << to_string(d) << "\n";
  }
  std::cout << "\ncommcheck: " << clean << " schedule(s) clean, " << failed
            << " with errors\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  bool list = false;
  bool verbose = false;
  std::string family;
  std::string backend;
  std::string seed_defect;
  std::vector<int> n_list;
  std::vector<int> p_list;
  int layers = 0;
  int block = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--all")
        all = true;
      else if (arg == "--list")
        list = true;
      else if (arg == "--verbose")
        verbose = true;
      else if (arg == "--help" || arg == "-h") {
        print_usage(std::cout);
        return 0;
      } else if (arg.rfind("--seed-defect=", 0) == 0)
        seed_defect = arg.substr(14);
      else if (arg.rfind("--family=", 0) == 0)
        family = arg.substr(9);
      else if (arg.rfind("--backend=", 0) == 0)
        backend = arg.substr(10);
      else if (arg.rfind("--n=", 0) == 0)
        n_list = conflux::cli::parse_int_list(arg.substr(4), 1);
      else if (arg.rfind("--p=", 0) == 0)
        p_list = conflux::cli::parse_int_list(arg.substr(4), 1);
      else if (arg.rfind("--layers=", 0) == 0)
        layers = conflux::cli::parse_number(arg.substr(9), 0);
      else if (arg.rfind("--block=", 0) == 0)
        block = conflux::cli::parse_number(arg.substr(8), 0);
      else {
        std::cerr << "commcheck: unknown option '" << arg << "'\n";
        print_usage(std::cerr);
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "commcheck: bad value in '" << arg << "'\n";
      return 2;
    }
  }

  if (list) {
    for (const Backend& b : conflux::verify::registered_backends())
      std::cout << b.family << '/' << b.name << "\n";
    return 0;
  }
  if (!seed_defect.empty()) return run_seeded_defect(seed_defect);

  std::vector<Backend> selected;
  try {
    selected = conflux::verify::select_backends(
        family, backend.empty() ? std::vector<std::string>{}
                                : std::vector<std::string>{backend});
  } catch (const std::invalid_argument& e) {
    std::cerr << "commcheck: " << e.what() << " (try --list)\n";
    return 2;
  }

  try {
    if (all || (family.empty() && backend.empty())) {
      if (p_list.empty()) p_list = {4, 8, 9};
      if (n_list.empty()) n_list = {128, 256};
      return report(conflux::verify::sweep(selected, p_list, n_list), verbose);
    }

    if (n_list.empty()) n_list = {128};
    if (p_list.empty()) p_list = {8};
    std::vector<CheckResult> results;
    for (const Backend& b : selected)
      for (int n : n_list)
        for (int p : p_list) {
          CheckConfig config;
          config.n = n;
          config.p = p;
          config.force_layers = layers;
          config.block = block;
          results.push_back(conflux::verify::check_schedule(b, config));
        }
    return report(results, verbose);
  } catch (const std::exception& e) {
    std::cerr << "commcheck: " << e.what() << "\n";
    return 1;
  }
}
