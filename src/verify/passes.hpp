/// \file passes.hpp
/// CommCheck's analysis passes over the CommGraph IR. Each pass proves one
/// property of a communication schedule statically — before (or without)
/// any numeric flop running — and reports violations as located
/// diagnostics:
///
///  - matching:  every send has exactly one matching receive and vice
///               versa (orphan receives, dropped sends, and size-mismatched
///               pairs are errors);
///  - deadlock:  the schedule is executable under blocking receives and
///               non-blocking sends — no wait-for cycle, no rank stalled
///               forever;
///  - tags:      within a directed (src, dst) channel a tag is never
///               carried by two messages that could be simultaneously in
///               flight (matching would then depend on arrival order);
///  - volume:    the graph's byte/message accounting agrees exactly with
///               the run's CommVolume stats and sits above the family's
///               proven I/O lower bound.
///
/// The buffer-ownership lint (use-after-take, in-flight mutation) is
/// dynamic by nature; its reports are collected through the trace.hpp debug
/// hooks and folded into the same Diagnostic stream by the driver
/// (commcheck.hpp).
#pragma once

#include <string>
#include <vector>

#include "simnet/stats.hpp"
#include "support/assert.hpp"
#include "verify/comm_graph.hpp"

namespace conflux::verify {

enum class Severity { Error, Warning };

/// One located finding. `context` carries the (rank, step/seq, src, dst,
/// tag) coordinates of the offending event where applicable.
struct Diagnostic {
  Severity severity = Severity::Error;
  std::string pass;     ///< "matching", "deadlock", "tags", "volume", ...
  std::string message;  ///< human-readable, already containing the context
  CommContext context;  ///< structured location (support/assert.hpp)
};

/// Render "error[pass]: message" (the `confscope --check` report line).
[[nodiscard]] std::string to_string(const Diagnostic& d);

/// True if any diagnostic is an Error.
[[nodiscard]] bool has_errors(const std::vector<Diagnostic>& diags);

/// Pass 1: send/recv pairing. Flags unmatched sends (message never
/// received), orphan receives (no send can satisfy them), and matched
/// pairs whose byte counts disagree.
[[nodiscard]] std::vector<Diagnostic> check_matching(const CommGraph& g);

/// Pass 2: deadlock freedom. Replays the schedule abstractly (sends never
/// block; a receive completes once its matched send is issued) and reports
/// every wait-for cycle among stalled ranks, plus ranks stalled for
/// non-cyclic reasons (these always co-occur with a matching error).
[[nodiscard]] std::vector<Diagnostic> check_deadlock(const CommGraph& g);

/// Pass 3: tag hygiene. For every directed (src, dst) channel carrying the
/// same tag more than once, requires a happens-before chain from each
/// message's receive to the next same-tag send; otherwise the two can be
/// concurrently in flight and matching is order-dependent.
[[nodiscard]] std::vector<Diagnostic> check_tags(const CommGraph& g);

/// What the volume pass checks the graph against. `total` comes from the
/// run's StatsBoard (self-sends excluded there, and likewise here);
/// `max_rank_bytes` is Fig. 6's per-node metric; `lower_bound_bytes`, when
/// positive, is the family's proven I/O lower bound (src/models) — measured
/// volume below a *lower bound* means the accounting itself is broken.
struct VolumeExpectation {
  simnet::CommVolume total;
  std::uint64_t max_rank_bytes = 0;
  double lower_bound_bytes = 0;  ///< <= 0: skip the bound check
};

/// Pass 4: volume conservation, cross-checked against the fabric stats.
[[nodiscard]] std::vector<Diagnostic> check_volume(
    const CommGraph& g, const VolumeExpectation& expect);

/// All static passes in order (matching, deadlock, tags, volume).
[[nodiscard]] std::vector<Diagnostic> run_all_passes(
    const CommGraph& g, const VolumeExpectation& expect);

}  // namespace conflux::verify
