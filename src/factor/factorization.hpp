/// \file factorization.hpp
/// The shared configuration and result layer of the distributed
/// factorization families:
///   - LU (src/lu): COnfLUX and the three §8 comparison targets;
///   - Cholesky (src/cholesky): COnfCHOX and the ScaLAPACK-style 2D
///     baseline of the journal extension (arXiv:2108.09337).
///
/// Both families run on the same simnet SPMD fabric, report the same
/// CommVolume metrics (the paper's Score-P byte counts), support the same
/// Numeric/DryRun duality, and share the 2.5D ablation knob. Everything a
/// factorization result has in common — grid, block size, per-rank volume,
/// residual, wall time — lives here; family-specific extras (LU's pivot
/// growth and permutation, Cholesky's L factor semantics) live in the
/// derived LuResult/CholResult types.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "simnet/faults.hpp"
#include "simnet/stats.hpp"
#include "simnet/vtime.hpp"

namespace conflux::simnet {
class Network;
class TraceRecorder;
}  // namespace conflux::simnet

namespace conflux::telemetry {
class TelemetryBoard;
}  // namespace conflux::telemetry

namespace conflux::factor {

/// Execution mode, read once per run by run_input.
/// - Numeric: factor real data, record the factors, verify the residual.
/// - DryRun: the same code with no data. The layouts hold no input, so no
///   rank packs, unpacks or computes, and every payload is a ghost; for
///   pivoted algorithms, synthetic hash-spread pivots stand in for the
///   ones values would pick. Message sizes depend only on index sets,
///   never on matrix values, so the measured volume is exact (tests assert
///   DryRun == Numeric volume; for the pivot-free Cholesky family the two
///   are bit-identical).
enum class Mode { Numeric, DryRun };

/// A distributed-factorization problem configuration, shared by every
/// algorithm in both families.
struct FactorConfig {
  int n = 0;       ///< matrix dimension; must be a multiple of the block size
  int p = 1;       ///< ranks available (nodes in the paper's terminology)
  int block = 0;   ///< v (2.5D algorithms) or nb (2D); 0 = auto-tune
  Mode mode = Mode::Numeric;
  std::uint64_t seed = 42;  ///< synthetic pivot seed (DryRun, LU only)

  // --- ablation knob (bench_ablation) -------------------------------------
  int force_layers = 0;       ///< force the replication depth c (0 = auto:
                              ///< the grid optimizer picks it)
  bool verify = true;         ///< Numeric: collect factors and check
  bool keep_factors = false;  ///< Numeric: retain the factors in the
                              ///< result (lu/solve.hpp consumes them)

  /// Optional schedule export: when set, the run's Network attaches this
  /// recorder, so every send and receive lands in a per-rank event
  /// log (simnet/trace.hpp). This is how the static verifier
  /// (src/verify, `confscope --check`) extracts the communication graph of a
  /// dry run; numeric runs can attach it too to check the dry-run contract.
  simnet::TraceRecorder* trace = nullptr;

  /// The clock of the run's fabric (simnet/vtime.hpp). Either way the ranks
  /// run as cooperative fibers over min(pool size, P) host threads.
  /// HostClock (the default) charges nothing and stamps host time;
  /// VirtualTime keeps a LogGP clock per rank, which is what lets the
  /// benches run P = 512–4096 on a laptop-class host and report a
  /// *predicted* wall clock (FactorResult::predicted_seconds).
  simnet::FabricSpec fabric{};

  /// Optional ConfScope telemetry (support/telemetry.hpp), mirroring the
  /// `trace` hook: when set, the run's Network attaches this board, the
  /// backend opens a span per step-record phase (panel tournament, pivot
  /// apply, TRSM, Schur update, layer reduction), and the fabric attributes
  /// sent bytes to the sender's open span and blocked-in-recv time to
  /// (src, tag) wait samples. Null (the default) costs nothing on the hot
  /// path.
  telemetry::TelemetryBoard* telemetry = nullptr;

  /// Optional ConfChaos fault plan (simnet/faults.hpp), mirroring the
  /// `trace`/`telemetry` hooks: when set, the run's Network attaches this
  /// plan and every remote message consults it for seeded link delays,
  /// rank stalls and payload bit-flips. Delays and stalls are charged to
  /// the virtual clock, so a plan that makes them needs a VirtualTime
  /// fabric. Null (the default) costs nothing.
  simnet::FaultPlan* faults = nullptr;

  /// End-to-end payload integrity: stamp every payload with its FNV-1a
  /// fingerprint at deliver time and verify it at receive time, raising
  /// simnet::PayloadCorrupted instead of silently misfactoring. Off by
  /// default (zero hot-path cost).
  bool integrity = false;

  /// Containment policy for the run's fabric: the virtual-clock cap
  /// (VirtualTime). All-zero (the default) sets no cap; a deadlock fails
  /// the run under either clock.
  simnet::RunPolicy policy{};
};

/// The common part of one factorization run's result. Derived result types
/// add family-specific fields; everything the volume benchmarks and
/// reporting consume is here.
struct FactorResult {
  simnet::CommVolume total;          ///< summed over ranks (Score-P metric)
  std::uint64_t max_rank_bytes = 0;  ///< busiest rank, sent+received (Fig. 6)
  int ranks_used = 0;                ///< active ranks (grid may idle some)
  int ranks_available = 0;           ///< the P the caller asked for
  std::string grid;                  ///< human-readable grid description
  int block = 0;                     ///< block size actually used
  double residual = std::numeric_limits<double>::quiet_NaN();  ///< Numeric
  double seconds = 0;                ///< wall time of the simulated run

  /// Virtual-time runs only: the predicted wall clock of the run on the
  /// modeled machine — the maximum per-rank LogGP clock at the join. 0
  /// under the host clock.
  double predicted_seconds = 0;

  /// Recovery accounting (factor/retry.hpp). attempts counts runs
  /// including the successful one; failure_causes holds the what() of each
  /// failed attempt in order; backoff_seconds sums the inter-attempt
  /// backoff, recorded and never slept. A first-try success is {1, {}, 0}.
  int attempts = 1;
  std::vector<std::string> failure_causes;
  double backoff_seconds = 0;

  /// Factors retained by a numeric run with cfg.keep_factors. Packing is
  /// family-specific: LU stores L below the diagonal and U on/above it in
  /// permuted row order (see lu/lu_common.hpp); Cholesky stores the lower
  /// triangular L with zeros above the diagonal.
  std::shared_ptr<linalg::Matrix> factors;

  /// Total bytes sent over the network — the paper's "communication volume".
  [[nodiscard]] double total_bytes() const {
    return static_cast<double>(total.bytes_sent);
  }
  /// Average per-available-rank volume (Fig. 6's per-node axis).
  [[nodiscard]] double bytes_per_rank() const {
    return total_bytes() / std::max(1, ranks_available);
  }
};

/// Populate the common CommVolume fields of `result` from a finished SPMD
/// run: summed volume, busiest-rank bytes, and the rank accounting. Every
/// algorithm in both families funnels its result through this helper so the
/// reported metrics stay directly comparable.
void fill_comm_stats(FactorResult& result, const simnet::Network& net,
                     int ranks_used, int ranks_available);

/// Attach every configured instrument to a run's fresh Network: trace,
/// telemetry, fault plan, integrity mode and containment policy. Every
/// backend calls this right after constructing its Network, so a new hook
/// added here reaches all seven algorithms at once.
void attach_instruments(simnet::Network& net, const FactorConfig& cfg);

/// The run's input, the one read of cfg.mode: null for a dry run, whatever
/// `a` is; for a numeric run, `a` after checking that it is an N x N
/// matrix (ContractViolation otherwise). Every driver calls this at its
/// entry and builds its layouts from the result.
[[nodiscard]] const linalg::Matrix* run_input(const FactorConfig& cfg,
                                              const linalg::Matrix* a);

}  // namespace conflux::factor
