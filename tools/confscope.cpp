/// confscope — the ConfScope profiler CLI.
///
/// Dry-runs (or, with --numeric, fully executes) registered factorization
/// backends with a TelemetryBoard and a TraceRecorder attached, then
/// reports the model-vs-measured profile:
///
///   - per-phase table: exclusive time, blocked-in-recv time, and wire
///     bytes per span name, next to the per-phase volume model's
///     prediction (models/phase_model.hpp) where one exists;
///   - critical path: makespan, path length, end rank, and per-rank slack
///     extracted from the timed CommGraph (verify/critical_path.hpp);
///   - totals: wall time, busy/blocked split, queue high-water marks, and
///     the whole-run volume next to the Table 2 cost model.
///
/// Two more modes share its backend selection: --chaos, the ConfChaos
/// fault-matrix sweep in virtual time, and --check, CommCheck, which lifts
/// each dry run's trace into the CommGraph IR and runs the src/verify
/// analysis passes over it (--seed-defect checks a broken schedule).
///
///   confscope --algo=COnfLUX,CALU --n=256 --p=8 --check-volume --trace=t.json
///   confscope --chaos --n=128 --p=8
///   confscope --check --all --n=128,256 --p=4,8,9
///
/// Exit status: 0 clean, 1 when --check-volume finds a phase outside the
/// band or compares none, --chaos finds a violation, --check finds an
/// Error diagnostic, --seed-defect's defect is detected, or a run fails;
/// 2 on usage errors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "factor/retry.hpp"
#include "linalg/generate.hpp"
#include "models/machines.hpp"
#include "models/phase_model.hpp"
#include "simnet/trace.hpp"
#include "support/json_writer.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "verify/comm_graph.hpp"
#include "verify/commcheck.hpp"
#include "verify/critical_path.hpp"

namespace {

using conflux::verify::Backend;

struct Options {
  std::vector<std::string> algos;  ///< empty + !all -> usage error
  std::string family;              ///< restrict --all to one family
  bool all = false;
  bool list = false;
  bool numeric = false;
  bool virtual_time = false;      ///< --virtual: LogGP fiber fabric
  std::string machine = "Piz Daint";  ///< --machine= LogGP preset
  bool check_volume = false;
  double band = 1.1;
  int n = 256;
  int p = 8;
  std::vector<int> n_list;  ///< --n= as given; more than one needs --check
  std::vector<int> p_list;  ///< --p= as given; likewise
  int layers = 0;
  int block = 0;
  std::string trace_path;
  std::string json_path;

  // --- ConfChaos sweep (--chaos) ------------------------------------------
  bool chaos = false;
  std::uint64_t chaos_seed = 1;  ///< --chaos-seed= fault-matrix seed
  int attempts = 3;              ///< --attempts= retry budget per scenario

  // --- CommCheck (--check, --seed-defect) ----------------------------------
  bool check = false;
  std::string seed_defect;  ///< deadlock | orphan-recv | tag-collision | volume
};

/// One backend's collected profile. The board is heap-held so the Chrome
/// trace writer can stream every backend after all runs finish.
struct Profile {
  Backend backend;
  conflux::factor::FactorResult run;
  std::unique_ptr<conflux::telemetry::TelemetryBoard> board;
  std::map<std::string, conflux::telemetry::PhaseTotal> phases;
  conflux::verify::CriticalPath path;
  std::vector<conflux::models::PhaseVolume> model;  ///< empty if no model
  double model_total_bytes = 0;                     ///< volume model, bytes
};

void print_usage(std::ostream& os) {
  os << "usage: confscope [--algo=NAME[,NAME...]] [--all] "
        "[--family=LU|Cholesky]\n"
        "                 [--n=N] [--p=P] [--layers=C] [--block=V] "
        "[--numeric]\n"
        "                 [--virtual] [--machine=NAME]\n"
        "                 [--trace=FILE] [--json=FILE] [--check-volume]\n"
        "                 [--band=X] [--chaos] [--check] "
        "[--seed-defect=CLASS]\n"
        "                 [--list] [--help]\n"
        "\n"
        "Profiles factorization backends on the simulated fabric: per-phase\n"
        "span times and wire bytes vs the per-phase volume model, fabric\n"
        "wait metrics, and the critical path of the timed schedule.\n"
        "\n"
        "  --algo=LIST    backend names to profile (see --list)\n"
        "  --all          profile every registered backend\n"
        "  --family=F     with --all: restrict to LU or Cholesky\n"
        "  --n=N          matrix dimension (default 256; a list with --check)\n"
        "  --p=P          rank count (default 8; a list with --check)\n"
        "  --layers=C     force the 2.5D replication depth (0 = auto)\n"
        "  --block=V      force the block size (0 = auto)\n"
        "  --numeric      numeric run on the backend's input_kind() matrix\n"
        "                 instead of a dry run (LU pivots then rarely leave\n"
        "                 the diagonal, unlike a dry run's synthetic ones)\n"
        "  --virtual      keep the LogGP virtual clock instead of the host\n"
        "                 clock: spans, waits, the trace and the critical\n"
        "                 path are in *predicted* seconds\n"
        "  --machine=NAME LogGP preset for --virtual (default Piz Daint;\n"
        "                 see models/machines.hpp)\n"
        "  --trace=FILE   write a merged Chrome-trace/Perfetto JSON file\n"
        "                 (one process per backend, one thread per rank)\n"
        "  --json=FILE    write the machine-readable profile report\n"
        "  --check-volume fail (exit 1) when a measured phase volume falls\n"
        "                 outside the model band, or when no phase had a\n"
        "                 model (COnfLUX and CALU, auto grid and block)\n"
        "  --band=X       model band for --check-volume (default 1.1)\n"
        "  --chaos        ConfChaos: run each selected backend in virtual\n"
        "                 time (--machine) under a seeded fault matrix\n"
        "                 (delays, stalls, corruption, deadline expiry);\n"
        "                 fail unless every fault is contained. --json=FILE\n"
        "                 writes the recovery report\n"
        "  --chaos-seed=S fault-matrix seed for --chaos (default 1)\n"
        "  --attempts=K   retry budget per chaos scenario (default 3)\n"
        "  --check        CommCheck: verify dry-run schedules (matching,\n"
        "                 deadlock, tags, volume, buffer ownership). With\n"
        "                 --algo: each backend at each --n x --p. Else sweep\n"
        "                 every backend (default N=128,256; P=4,8,9; layers\n"
        "                 auto,1,2 where it has them)\n"
        "  --seed-defect=CLASS\n"
        "                 verify a defective schedule (deadlock, orphan-recv,\n"
        "                 tag-collision, volume); exit 1 when detected\n"
        "  --list         print the registered (family, backend) table\n"
        "  --help         this text\n";
}

/// Run one backend with telemetry + trace attached and collect its profile.
Profile profile_backend(const Backend& backend, const Options& opt) {
  Profile out;
  out.backend = backend;
  out.board = std::make_unique<conflux::telemetry::TelemetryBoard>();

  conflux::simnet::TraceRecorder trace;
  conflux::factor::FactorConfig cfg;
  cfg.n = opt.n;
  cfg.p = opt.p;
  cfg.block = opt.block;
  cfg.force_layers = opt.layers;
  cfg.mode = opt.numeric ? conflux::factor::Mode::Numeric
                         : conflux::factor::Mode::DryRun;
  cfg.verify = opt.numeric;
  cfg.trace = &trace;
  cfg.telemetry = out.board.get();
  if (opt.virtual_time)
    cfg.fabric = conflux::verify::virtual_fabric(
        conflux::models::machine_by_name(opt.machine));
  conflux::linalg::Matrix a;
  if (opt.numeric) a = conflux::linalg::generate(opt.n, backend.input_kind());
  out.run = backend.run(opt.numeric ? &a : nullptr, cfg);

  out.phases = out.board->phase_totals();
  const conflux::verify::CommGraph graph =
      conflux::verify::CommGraph::build(trace);
  out.path = conflux::verify::extract_critical_path(graph, *out.board);

  // The per-phase model replays the auto-tuned schedule; a forced grid or
  // block size walks a different schedule, so the comparison is skipped.
  if (opt.layers == 0 && opt.block == 0 &&
      conflux::models::has_phase_model(backend.name))
    out.model = conflux::models::predict_lu_phases(backend.name, opt.n, opt.p);

  out.model_total_bytes = backend.volume_model()->total_bytes(
      conflux::models::max_replication_instance(opt.n, opt.p));
  return out;
}

/// The phase model's entry for `phase`, or null when it has none.
const conflux::models::PhaseVolume* phase_model(const Profile& prof,
                                                const std::string& phase) {
  for (const conflux::models::PhaseVolume& pv : prof.model)
    if (pv.phase == phase) return &pv;
  return nullptr;
}

/// Measured/model ratio gate: both sides must be nonzero and within `band`
/// of each other; phases with zero on both sides (trsm) pass trivially.
bool phase_in_band(double measured, double model, double band) {
  if (measured == 0 && model == 0) return true;
  if (measured == 0 || model == 0) return false;
  const double ratio = measured > model ? measured / model : model / measured;
  return ratio <= band;
}

/// `measured`'s deviation from a nonzero `model`, as a one-decimal percentage.
std::string deviation(double measured, double model) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * (measured - model) / model);
  return buf;
}

/// Print one backend's profile; returns how many phases had a model to
/// compare against, and clears `*volume_ok` when --check-volume finds one
/// outside the band.
int print_profile(const Profile& prof, const Options& opt, bool* volume_ok) {
  using conflux::Table;
  using conflux::fmt;
  using conflux::human_bytes;
  const conflux::telemetry::TelemetryBoard& board = *prof.board;

  std::cout << "== " << prof.backend.family << '/' << prof.backend.name
            << "  n=" << opt.n << " p=" << opt.p << " grid=" << prof.run.grid
            << " v=" << prof.run.block
            << (opt.numeric ? " (numeric)" : " (dry run)") << "\n";

  Table table({"phase", "seconds", "wait_s", "bytes", "model", "dev"});
  // Engine step order; phase_totals() is alphabetical, which buries the
  // pipeline structure the table is meant to show.
  static const char* kOrder[] = {
      conflux::telemetry::kLayerReduction, conflux::telemetry::kPanelTournament,
      conflux::telemetry::kPanelFactor,    conflux::telemetry::kPivotApply,
      conflux::telemetry::kTrsm,           conflux::telemetry::kSchurUpdate};
  std::vector<std::string> order;
  for (const char* name : kOrder)
    if (prof.phases.count(name) != 0) order.emplace_back(name);
  for (const auto& entry : prof.phases)
    if (std::find(order.begin(), order.end(), entry.first) == order.end())
      order.push_back(entry.first);

  int compared = 0;
  for (const std::string& name : order) {
    const conflux::telemetry::PhaseTotal& t = prof.phases.at(name);
    std::string model_cell = "-";
    std::string dev_cell = "-";
    if (const conflux::models::PhaseVolume* pv = phase_model(prof, name)) {
      ++compared;
      const double model = pv->bytes;
      model_cell = human_bytes(model);
      if (model > 0)
        dev_cell = deviation(static_cast<double>(t.bytes), model);
      else if (t.bytes == 0)
        dev_cell = "0.0%";
      if (opt.check_volume &&
          !phase_in_band(static_cast<double>(t.bytes), model, opt.band)) {
        *volume_ok = false;
        dev_cell += " OUT-OF-BAND";
      }
    }
    table.add_row({name, fmt(t.seconds, 4), fmt(t.wait_seconds, 4),
                   human_bytes(static_cast<double>(t.bytes)), model_cell,
                   dev_cell});
  }
  table.print(std::cout, 2);

  // Fabric totals: busy/blocked split and the worst inbound queue depth.
  double busy = 0, blocked = 0;
  int hwm = 0;
  for (int r = 0; r < board.nranks(); ++r) {
    busy += board.busy_seconds(r);
    blocked += board.blocked_seconds(r);
    hwm = std::max(hwm, board.queue_hwm(r));
  }
  if (prof.run.predicted_seconds > 0)
    std::cout << "  predicted makespan " << fmt(prof.run.predicted_seconds, 4)
              << " s (virtual time)\n";
  std::cout << "  wall " << fmt(board.wall_seconds(), 4) << " s, busy "
            << fmt(busy, 4) << " s, blocked " << fmt(blocked, 4)
            << " s (summed over " << board.nranks()
            << " ranks), queue hwm " << hwm << "\n";

  // Critical path + slack.
  double max_slack = 0;
  for (const double s : prof.path.slack_seconds) max_slack = std::max(max_slack, s);
  std::cout << "  critical path " << fmt(prof.path.seconds, 4) << " s over "
            << prof.path.nodes.size() << " events, ends on rank "
            << prof.path.end_rank << ", max rank slack "
            << fmt(max_slack, 4) << " s\n";

  std::cout << "  volume " << human_bytes(prof.run.total_bytes()) << " ("
            << prof.run.total.messages_sent << " messages";
  if (prof.model_total_bytes > 0)
    std::cout << "; model " << human_bytes(prof.model_total_bytes) << ", "
              << deviation(prof.run.total_bytes(), prof.model_total_bytes);
  std::cout << ")\n\n";
  return compared;
}

void write_json(std::ostream& os, const std::vector<Profile>& profiles,
                const Options& opt) {
  conflux::support::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "confscope");
  w.kv("n", opt.n);
  w.kv("p", opt.p);
  w.kv("mode", opt.numeric ? "numeric" : "dry");
  w.key("backends");
  w.begin_array();
  for (const Profile& prof : profiles) {
    const conflux::telemetry::TelemetryBoard& board = *prof.board;
    w.begin_object();
    w.kv("family", prof.backend.family);
    w.kv("name", prof.backend.name);
    w.kv("grid", prof.run.grid);
    w.kv("block", prof.run.block);
    w.kv("seconds", prof.run.seconds);
    w.kv("wall_seconds", board.wall_seconds());
    if (prof.run.predicted_seconds > 0)
      w.kv("predicted_seconds", prof.run.predicted_seconds);
    w.kv("total_bytes", prof.run.total.bytes_sent);
    w.kv("messages_sent", prof.run.total.messages_sent);
    w.kv("messages_received", prof.run.total.messages_received);
    if (prof.model_total_bytes > 0)
      w.kv("model_total_bytes", prof.model_total_bytes);
    w.kv("critical_path_seconds", prof.path.seconds);
    w.kv("critical_path_events",
         static_cast<std::uint64_t>(prof.path.nodes.size()));
    w.kv("critical_path_end_rank", prof.path.end_rank);
    w.key("phases");
    w.begin_array();
    for (const auto& [name, t] : prof.phases) {
      w.begin_object();
      w.kv("phase", name);
      w.kv("seconds", t.seconds);
      w.kv("wait_seconds", t.wait_seconds);
      w.kv("bytes", t.bytes);
      w.kv("count", t.count);
      if (const conflux::models::PhaseVolume* pv = phase_model(prof, name))
        w.kv("model_bytes", pv->bytes);
      w.end_object();
    }
    w.end_array();
    w.key("ranks");
    w.begin_array();
    for (int r = 0; r < board.nranks(); ++r) {
      w.begin_object();
      w.kv("rank", r);
      w.kv("busy_seconds", board.busy_seconds(r));
      w.kv("blocked_seconds", board.blocked_seconds(r));
      if (r < static_cast<int>(prof.path.slack_seconds.size()))
        w.kv("slack_seconds",
             prof.path.slack_seconds[static_cast<std::size_t>(r)]);
      w.kv("queue_hwm", board.queue_hwm(r));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

// ---------------------------------------------------------------------------
// ConfChaos (--chaos): seeded fault matrix x backend, in virtual time.
//
// Per backend a fault-free numeric baseline is run first, then four
// scenarios, each of which must be *contained*:
//   delay    link delays + jitter   -> run succeeds, volume bit-identical
//   stall    rank stalls + slowdown -> run succeeds, volume bit-identical
//   corrupt  payload bit-flips with integrity on -> typed PayloadCorrupted,
//            retry recovers, recovered volume bit-identical, residual passes
//   timeout  every message delayed past the virtual-clock cap -> typed
//            ReceiveTimeout with located context (never a hang)
// Any hang is caught by the CTest TIMEOUT; any other violation exits 1.
// ---------------------------------------------------------------------------

struct ChaosOutcome {
  std::string backend;   ///< "family/name"
  std::string scenario;  ///< delay | stall | corrupt | timeout
  bool ok = false;
  std::string detail;
  int attempts = 1;
  double backoff_s = 0;  ///< recovery backoff recorded by run_with_retry
  double wall_s = 0;     ///< host seconds the scenario took
  conflux::simnet::FaultPlan::Counters counters;
};

bool chaos_volume_matches(const conflux::factor::FactorResult& got,
                          const conflux::factor::FactorResult& want,
                          std::string* detail) {
  if (got.total.bytes_sent == want.total.bytes_sent &&
      got.total.messages_sent == want.total.messages_sent)
    return true;
  *detail = "volume diverged: " + std::to_string(got.total.bytes_sent) +
            " bytes vs baseline " + std::to_string(want.total.bytes_sent);
  return false;
}

constexpr double kChaosResidualTol = 1e-9;

int run_chaos(const std::vector<Backend>& selected, const Options& opt) {
  using conflux::factor::FactorConfig;
  using conflux::factor::FactorResult;
  using conflux::factor::RetryPolicy;
  using conflux::factor::run_with_retry;
  using conflux::simnet::FaultPlan;
  using conflux::simnet::FaultSpec;

  const conflux::simnet::FabricSpec fabric = conflux::verify::virtual_fabric(
      conflux::models::machine_by_name(opt.machine));

  std::vector<ChaosOutcome> outcomes;

  for (const Backend& b : selected) {
    const conflux::linalg::Matrix a =
        conflux::linalg::generate(opt.n, b.input_kind());
    FactorConfig base;
    base.n = opt.n;
    base.p = opt.p;
    base.block = opt.block;
    base.force_layers = opt.layers;
    base.mode = conflux::factor::Mode::Numeric;
    base.verify = true;
    base.fabric = fabric;
    base.policy.virtual_deadline_s = 1e9;  // watchdog: absurd = bug

    const std::string id = b.family + "/" + b.name;
    FactorResult baseline;
    try {
      baseline = b.run(&a, base);
    } catch (const std::exception& e) {
      outcomes.push_back({id, "baseline", false,
                          std::string("baseline failed: ") + e.what(), 1, 0, 0,
                          {}});
      continue;
    }

    // Inject-but-succeed scenarios: faults that must never change the
    // dataflow. Delays and stalls are virtual-clock charges, so hefty
    // magnitudes cost no host time.
    struct Soft {
      const char* name;
      FaultSpec spec;
    };
    FaultSpec delay_spec;
    delay_spec.seed = opt.chaos_seed;
    delay_spec.faulty_links = 0.5;
    delay_spec.delay_prob = 0.3;
    delay_spec.delay_s = 1e-3;
    delay_spec.jitter_s = 5e-4;
    FaultSpec stall_spec;
    stall_spec.seed = opt.chaos_seed + 1;
    stall_spec.stall_prob = 0.2;
    stall_spec.stall_s = 1e-2;
    stall_spec.slow_ranks = 2;
    stall_spec.slow_factor = 2.0;
    for (const Soft& soft :
         {Soft{"delay", delay_spec}, Soft{"stall", stall_spec}}) {
      ChaosOutcome out;
      out.backend = id;
      out.scenario = soft.name;
      FaultPlan plan(soft.spec);
      FactorConfig cfg = base;
      cfg.faults = &plan;
      RetryPolicy rp;
      rp.max_attempts = opt.attempts;
      const conflux::Stopwatch clock;
      try {
        const FactorResult r = run_with_retry(
            [&] { return b.run(&a, cfg); }, rp, &plan);
        out.attempts = r.attempts;
        out.backoff_s = r.backoff_seconds;
        out.ok = chaos_volume_matches(r, baseline, &out.detail) &&
                 r.residual < kChaosResidualTol;
        if (out.ok && plan.counters().delayed + plan.counters().stalled == 0)
          out.detail = "warning: no fault fired";
      } catch (const std::exception& e) {
        out.detail = e.what();
      }
      out.wall_s = clock.seconds();
      out.counters = plan.counters();
      outcomes.push_back(out);
    }

    // Corruption + integrity + retry. The probability targets ~1 flip per
    // attempt (calibrated from the baseline's message count) and the seed
    // scans forward until an attempt is actually poisoned — each seed's
    // outcome is deterministic, so the sweep is too.
    {
      ChaosOutcome out;
      out.backend = id;
      out.scenario = "corrupt";
      const conflux::Stopwatch clock;
      bool fired = false;
      for (std::uint64_t seed = opt.chaos_seed;
           seed < opt.chaos_seed + 32 && !out.ok; ++seed) {
        FaultSpec spec;
        spec.seed = seed;
        spec.corrupt_prob =
            1.0 / static_cast<double>(
                      std::max<std::uint64_t>(1, baseline.total.messages_sent));
        FaultPlan plan(spec);
        FactorConfig cfg = base;
        cfg.faults = &plan;
        cfg.integrity = true;
        RetryPolicy rp;
        rp.max_attempts = opt.attempts;
        rp.backoff_s = 0.001;
        try {
          const FactorResult r = run_with_retry(
              [&] { return b.run(&a, cfg); }, rp, &plan);
          if (r.attempts > 1) {
            fired = true;
            out.attempts = r.attempts;
            out.backoff_s = r.backoff_seconds;
            out.counters = plan.counters();
            out.ok = chaos_volume_matches(r, baseline, &out.detail) &&
                     r.residual < kChaosResidualTol;
            if (!out.ok && out.detail.empty())
              out.detail = "recovered run failed the residual gate";
          }
        } catch (const conflux::simnet::PayloadCorrupted&) {
          fired = true;  // detected every time but retries exhausted;
                         // keep scanning for a recoverable seed
        } catch (const std::exception& e) {
          out.detail = std::string("unexpected failure type: ") + e.what();
          break;
        }
      }
      if (!out.ok && out.detail.empty())
        out.detail = fired ? "corruption detected but never recovered"
                           : "injection never fired (probability too low)";
      out.wall_s = clock.seconds();
      outcomes.push_back(out);
    }

    // Deadline expiry: every message delayed far past the virtual-clock
    // cap. The only acceptable outcome is the typed, located ReceiveTimeout
    // — anything else is an escape (and a hang would trip the CTest
    // TIMEOUT).
    {
      ChaosOutcome out;
      out.backend = id;
      out.scenario = "timeout";
      FaultSpec spec;
      spec.seed = opt.chaos_seed + 2;
      spec.delay_prob = 1.0;
      spec.delay_s = 10.0;
      FaultPlan plan(spec);
      FactorConfig cfg = base;
      cfg.faults = &plan;
      cfg.policy.virtual_deadline_s = 1.0;
      const conflux::Stopwatch clock;
      try {
        (void)b.run(&a, cfg);
        out.detail = "deadline never fired";
      } catch (const conflux::simnet::ReceiveTimeout& e) {
        if (e.deadlock())
          out.detail = "misclassified as deadlock";
        else if (e.context().rank < 0)
          out.detail = "timeout lost its context";
        else
          out.ok = true;
      } catch (const std::exception& e) {
        out.detail = std::string("untyped failure: ") + e.what();
      }
      out.wall_s = clock.seconds();
      out.counters = plan.counters();
      outcomes.push_back(out);
    }
  }

  conflux::Table table({"backend", "scenario", "result", "attempts",
                        "backoff_s", "wall_s", "inj", "detail"});
  bool all_ok = true;
  for (const ChaosOutcome& out : outcomes) {
    all_ok = all_ok && out.ok;
    const std::uint64_t injected =
        out.counters.delayed + out.counters.stalled + out.counters.corrupted;
    table.add_row({out.backend, out.scenario,
                   out.ok ? "ok" : "FAIL", std::to_string(out.attempts),
                   conflux::fmt(out.backoff_s, 4), conflux::fmt(out.wall_s, 3),
                   std::to_string(injected), out.detail});
  }
  table.print(std::cout, 2);

  if (!opt.json_path.empty()) {
    std::ofstream os(opt.json_path);
    if (!os) {
      std::cerr << "confscope: cannot write '" << opt.json_path << "'\n";
      return 1;
    }
    conflux::support::JsonWriter w(os);
    w.begin_object();
    w.kv("tool", "confscope-chaos");
    w.kv("n", opt.n);
    w.kv("p", opt.p);
    w.kv("seed", opt.chaos_seed);
    w.kv("machine", opt.machine);
    w.kv("attempts_budget", opt.attempts);
    w.key("scenarios");
    w.begin_array();
    for (const ChaosOutcome& out : outcomes) {
      w.begin_object();
      w.kv("backend", out.backend);
      w.kv("scenario", out.scenario);
      w.kv("ok", out.ok);
      w.kv("attempts", out.attempts);
      w.kv("backoff_seconds", out.backoff_s);
      w.kv("wall_seconds", out.wall_s);
      w.kv("delayed", out.counters.delayed);
      w.kv("stalled", out.counters.stalled);
      w.kv("corrupted", out.counters.corrupted);
      if (!out.detail.empty()) w.kv("detail", out.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::cout << "wrote chaos report to " << opt.json_path << "\n";
  }

  if (!all_ok) {
    std::cerr << "confscope: chaos sweep found uncontained faults\n";
    return 1;
  }
  std::cout << "chaos sweep clean: " << outcomes.size()
            << " scenarios contained\n";
  return 0;
}

// ---------------------------------------------------------------------------
// CommCheck (--check, --seed-defect): static schedule verification.
// ---------------------------------------------------------------------------

/// --check: with --all, the registry sweep over the --n x --p lists;
/// otherwise each selected backend at each (n, p) and the forced grid.
/// Prints one ok/FAIL line per schedule, each failure with its diagnostics.
int run_check(const std::vector<Backend>& selected, Options opt) {
  if (opt.n_list.empty())
    opt.n_list = opt.all ? std::vector<int>{128, 256} : std::vector<int>{opt.n};
  if (opt.p_list.empty())
    opt.p_list = opt.all ? std::vector<int>{4, 8, 9} : std::vector<int>{opt.p};
  std::vector<conflux::verify::CheckResult> results;
  if (opt.all)
    results = conflux::verify::sweep(selected, opt.p_list, opt.n_list);
  else
    for (const Backend& b : selected)
      for (int n : opt.n_list)
        for (int p : opt.p_list) {
          results.push_back(conflux::verify::check_schedule(
              b, {.n = n, .p = p, .block = opt.block,
                  .force_layers = opt.layers}));
        }

  int failed = 0;
  for (const conflux::verify::CheckResult& r : results) {
    std::cout << (r.ok() ? "ok   " : "FAIL ") << r.describe() << "\n";
    if (r.ok()) continue;
    ++failed;
    for (const conflux::verify::Diagnostic& d : r.diags)
      std::cout << "  " << to_string(d) << "\n";
  }
  std::cout << "\nCommCheck: " << results.size() - failed
            << " schedule(s) clean, " << failed << " with errors\n";
  return failed == 0 ? 0 : 1;
}

/// --seed-defect: verify a deliberately defective two-rank schedule. Each
/// class the verifier claims to catch must produce a located Error and
/// exit 1; a clean exit (0) means the defect slipped through, which the
/// CTest WILL_FAIL entries flag.
int run_seeded_defect(const std::string& which) {
  conflux::simnet::TraceRecorder rec(2);
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
    std::cerr << "confscope: unknown defect class '" << which
              << "' (deadlock, orphan-recv, tag-collision, volume)\n";
    return 2;
  }

  const auto diags = conflux::verify::run_all_passes(
      conflux::verify::CommGraph::build(rec), expect);
  std::cout << "seeded defect '" << which << "': " << diags.size()
            << " diagnostic(s)\n";
  for (const conflux::verify::Diagnostic& d : diags)
    std::cout << "  " << to_string(d) << "\n";
  if (conflux::verify::has_errors(diags)) return 1;
  std::cout << "seeded defect was NOT detected: the verifier is broken\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--all")
        opt.all = true;
      else if (arg == "--list")
        opt.list = true;
      else if (arg == "--numeric")
        opt.numeric = true;
      else if (arg == "--virtual")
        opt.virtual_time = true;
      else if (arg == "--check-volume")
        opt.check_volume = true;
      else if (arg == "--chaos")
        opt.chaos = true;
      else if (arg == "--check")
        opt.check = true;
      else if (arg == "--help" || arg == "-h") {
        print_usage(std::cout);
        return 0;
      } else if (arg.rfind("--algo=", 0) == 0)
        opt.algos = conflux::cli::parse_name_list(arg.substr(7));
      else if (arg.rfind("--family=", 0) == 0)
        opt.family = arg.substr(9);
      else if (arg.rfind("--machine=", 0) == 0)
        opt.machine = arg.substr(10);
      else if (arg.rfind("--n=", 0) == 0)
        opt.n_list = conflux::cli::parse_int_list(arg.substr(4), 1);
      else if (arg.rfind("--p=", 0) == 0)
        opt.p_list = conflux::cli::parse_int_list(arg.substr(4), 1);
      else if (arg.rfind("--seed-defect=", 0) == 0) {
        opt.seed_defect = arg.substr(14);
        opt.check = true;
      } else if (arg.rfind("--layers=", 0) == 0)
        opt.layers = conflux::cli::parse_number(arg.substr(9), 0);
      else if (arg.rfind("--block=", 0) == 0)
        opt.block = conflux::cli::parse_number(arg.substr(8), 0);
      else if (arg.rfind("--band=", 0) == 0)
        opt.band = conflux::cli::parse_number(arg.substr(7), 1.0);
      else if (arg.rfind("--chaos-seed=", 0) == 0)
        opt.chaos_seed =
            conflux::cli::parse_number<std::uint64_t>(arg.substr(13), 0);
      else if (arg.rfind("--attempts=", 0) == 0)
        opt.attempts = conflux::cli::parse_number(arg.substr(11), 1);
      else if (arg.rfind("--trace=", 0) == 0)
        opt.trace_path = arg.substr(8);
      else if (arg.rfind("--json=", 0) == 0)
        opt.json_path = arg.substr(7);
      else {
        std::cerr << "confscope: unknown option '" << arg << "'\n";
        print_usage(std::cerr);
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "confscope: bad value in '" << arg << "'\n";
      return 2;
    }
  }

  if (opt.list) {
    for (const Backend& b : conflux::verify::registered_backends())
      std::cout << b.family << '/' << b.name << "\n";
    return 0;
  }

  if (opt.check) {
    if (opt.chaos || opt.numeric || opt.virtual_time || opt.check_volume ||
        !opt.trace_path.empty() || !opt.json_path.empty()) {
      std::cerr << "confscope: --check verifies dry-run schedules and takes "
                   "no --chaos or profiling option\n";
      return 2;
    }
    if (!opt.seed_defect.empty()) return run_seeded_defect(opt.seed_defect);
  } else if (opt.n_list.size() > 1 || opt.p_list.size() > 1) {
    std::cerr << "confscope: a list of --n or --p values needs --check\n";
    return 2;
  } else {
    if (!opt.n_list.empty()) opt.n = opt.n_list.front();
    if (!opt.p_list.empty()) opt.p = opt.p_list.front();
  }

  // --chaos and --check with no explicit selection sweep every registered
  // backend.
  if ((opt.chaos || opt.check) && opt.algos.empty()) opt.all = true;
  if (opt.check && opt.all && (opt.layers != 0 || opt.block != 0)) {
    std::cerr << "confscope: the --check sweep picks its own grids and "
                 "blocks; --layers/--block need --algo=...\n";
    return 2;
  }

  if (opt.algos.empty() && !opt.all) {
    std::cerr << "confscope: nothing selected (use --algo=... or --all)\n";
    print_usage(std::cerr);
    return 2;
  }
  std::vector<Backend> selected;
  try {
    selected = conflux::verify::select_backends(
        opt.family, opt.all ? std::vector<std::string>{} : opt.algos);
  } catch (const std::invalid_argument& e) {
    std::cerr << "confscope: " << e.what() << " (try --list)\n";
    return 2;
  }

  if (opt.chaos) return run_chaos(selected, opt);

  bool volume_ok = true;
  int compared = 0;
  std::vector<Profile> profiles;
  try {
    if (opt.check) return run_check(selected, opt);
    for (const Backend& b : selected)
      profiles.push_back(profile_backend(b, opt));
    for (const Profile& prof : profiles)
      compared += print_profile(prof, opt, &volume_ok);
  } catch (const std::exception& e) {
    std::cerr << "confscope: " << e.what() << "\n";
    return 1;
  }

  if (!opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path);
    if (!os) {
      std::cerr << "confscope: cannot write '" << opt.trace_path << "'\n";
      return 1;
    }
    conflux::telemetry::ChromeTraceWriter writer(os);
    int pid = 0;
    for (const Profile& prof : profiles)
      writer.add_process(pid++, prof.backend.family + "/" + prof.backend.name,
                         *prof.board);
    writer.finish();
    std::cout << "wrote Chrome trace to " << opt.trace_path << "\n";
  }

  if (!opt.json_path.empty()) {
    std::ofstream os(opt.json_path);
    if (!os) {
      std::cerr << "confscope: cannot write '" << opt.json_path << "'\n";
      return 1;
    }
    write_json(os, profiles, opt);
    std::cout << "wrote profile JSON to " << opt.json_path << "\n";
  }

  if (opt.check_volume && compared == 0) {
    std::cerr << "confscope: --check-volume compared no phase: no selected "
                 "backend has a per-phase model here (COnfLUX and CALU "
                 "only, and a forced --layers/--block skips it)\n";
    return 1;
  }
  if (opt.check_volume && !volume_ok) {
    std::cerr << "confscope: measured per-phase volume outside the "
              << opt.band << "x model band\n";
    return 1;
  }
  return 0;
}
