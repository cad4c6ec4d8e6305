/// \file spmd.hpp
/// The SPMD launcher: runs one rank body per simulated rank, exactly like
/// `mpirun -np P` launches P processes over a single program body. The
/// ranks are the Network's cooperative fibers (vtime.hpp), multiplexed over
/// min(pool size, P) host threads, so repeated runs over one Network
/// (benchmark sweeps, multi-phase jobs) reuse its fiber stacks.
#pragma once

#include <functional>

#include "simnet/comm.hpp"

namespace conflux::simnet {

/// Run `body(comm)` on `nranks` ranks over a fresh Network and return that
/// network's statistics board totals. If any rank throws, the job is
/// aborted (parked receives wake up with JobAborted) and the first
/// exception is rethrown on the caller's thread.
CommVolume run_spmd(int nranks, const std::function<void(Comm&)>& body);

/// As run_spmd, but over a caller-provided network (so the caller can read
/// per-rank statistics afterwards, and pick the clock). The network's rank
/// count must match.
void run_spmd(Network& net, const std::function<void(Comm&)>& body);

}  // namespace conflux::simnet
