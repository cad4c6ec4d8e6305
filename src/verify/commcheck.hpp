/// \file commcheck.hpp
/// The backend registry and CommCheck, the static schedule verifier.
///
/// The registry is the one description of every factorization backend:
/// family, name, 2.5D replication, how to run it, and the numeric input,
/// lower bound and volume model it is compared against. The tools, the
/// figure benches and the tests select backends here (select_backends).
///
/// CommCheck dry-runs a registered backend with a TraceRecorder attached
/// (ghost messages carry byte counts only), lifts the recorded streams into
/// the CommGraph IR, and proves the schedule clean with the passes.hpp
/// analyses plus the buffer-ownership lint of the trace.hpp debug hooks.
/// `confscope --check` (and the confscope_check_* CTest entries / CI's
/// commcheck job) sweeps every registered backend across (P, grid)
/// configurations before any of its figures count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "factor/factorization.hpp"
#include "linalg/generate.hpp"
#include "models/cost_model.hpp"
#include "models/machines.hpp"
#include "verify/passes.hpp"

namespace conflux::verify {

/// A registered backend. Every member function dispatches on `family`, so
/// one FactorConfig runs a backend of either family.
struct Backend {
  std::string family;    ///< "LU" or "Cholesky"
  std::string name;      ///< table name ("COnfLUX", "LibSci", ...)
  bool layered = false;  ///< 2.5D: the schedule depends on the replication
                         ///< depth (FactorConfig::force_layers)

  /// Factor `a` under `cfg` (a DryRun ignores `a`, which may be null). The
  /// result drops the family-specific fields of LuResult / CholResult.
  [[nodiscard]] factor::FactorResult run(const linalg::Matrix* a,
                                         const factor::FactorConfig& cfg) const;
  /// The input a numeric run factors: diagonally dominant for LU, SPD for
  /// Cholesky.
  [[nodiscard]] linalg::MatrixKind input_kind() const;
  /// The family's I/O lower bound, in elements per rank.
  [[nodiscard]] double lower_bound_elements_per_rank(
      const models::Instance& inst) const;
  /// The backend's total-volume model (models/cost_model.hpp).
  [[nodiscard]] std::unique_ptr<models::CostModel> volume_model() const;
};

/// Every registered backend, families in paper order.
[[nodiscard]] std::vector<Backend> registered_backends();

/// The registered backends of `family` (empty = every family) whose name is
/// in `names` (empty = every name), in registry order. Throws
/// std::invalid_argument for a family or name the registry does not have,
/// so a typo is a usage error rather than an empty selection.
[[nodiscard]] std::vector<Backend> select_backends(
    const std::string& family, const std::vector<std::string>& names);

/// The registered backend called `name`; throws like select_backends.
[[nodiscard]] Backend find_backend(const std::string& name);

/// The virtual-time fabric with `machine`'s LogGP link (alpha, beta,
/// gamma): set it as FactorConfig::fabric to get a predicted wall clock.
[[nodiscard]] simnet::FabricSpec virtual_fabric(const models::Machine& machine);

/// Result of verifying one (backend, config) pair.
struct CheckResult {
  Backend backend;
  factor::FactorConfig config;  ///< as passed to check_schedule
  factor::FactorResult run;          ///< the dry run's volume/grid report
  std::size_t events = 0;            ///< trace events analyzed
  std::vector<Diagnostic> diags;     ///< all findings, passes + ownership

  [[nodiscard]] bool ok() const { return !has_errors(diags); }
  /// "LU/COnfLUX n=128 p=8 ..." header for reports.
  [[nodiscard]] std::string describe() const;
};

/// Verify one backend under one configuration: dry run with trace attached,
/// graph build, all passes, volume cross-check against the run's CommVolume
/// stats and the family's I/O lower bound, ownership lint collection.
/// `config` gives the schedule's shape (n, p, block, force_layers, seed);
/// the run itself is always a dry run with verify off and this check's own
/// trace recorder.
[[nodiscard]] CheckResult check_schedule(const Backend& backend,
                                         const factor::FactorConfig& config);

/// The sweep `confscope --check --all` runs: each of `backends` over the given
/// N and P lists crossed with replication depths {auto, 1, 2} where the
/// backend is layered (grids beyond its reach degrade gracefully to what it
/// picks).
[[nodiscard]] std::vector<CheckResult> sweep(
    const std::vector<Backend>& backends, const std::vector<int>& p_list,
    const std::vector<int>& n_list);

}  // namespace conflux::verify
