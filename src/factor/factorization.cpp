#include "factor/factorization.hpp"

#include "simnet/network.hpp"

namespace conflux::factor {

void fill_comm_stats(FactorResult& result, const simnet::Network& net,
                     int ranks_used, int ranks_available) {
  result.total = net.stats().total();
  result.max_rank_bytes = net.stats().max_rank_bytes();
  result.ranks_used = ranks_used;
  result.ranks_available = ranks_available;
  result.predicted_seconds = net.virtual_makespan();
}

void attach_instruments(simnet::Network& net, const FactorConfig& cfg) {
  if (cfg.trace != nullptr) net.set_trace(cfg.trace);
  if (cfg.telemetry != nullptr) net.set_telemetry(cfg.telemetry);
  if (cfg.faults != nullptr) net.set_faults(cfg.faults);
  net.set_integrity(cfg.integrity);
  net.set_policy(cfg.policy);
}

const linalg::Matrix* run_input(const FactorConfig& cfg,
                                const linalg::Matrix* a) {
  if (cfg.mode == Mode::DryRun) return nullptr;
  CONFLUX_EXPECTS_MSG(a != nullptr && a->rows() == cfg.n && a->cols() == cfg.n,
                      "a numeric run needs an N x N input, N = " << cfg.n);
  return a;
}

}  // namespace conflux::factor
