#include "simnet/spmd.hpp"

#include "support/assert.hpp"

namespace conflux::simnet {

void run_spmd(Network& net, const std::function<void(Comm&)>& body) {
  net.run([&](int rank) {
    Comm comm(net, rank);
    body(comm);
  });
}

CommVolume run_spmd(int nranks, const std::function<void(Comm&)>& body) {
  CONFLUX_EXPECTS(nranks >= 1);
  Network net(nranks);
  run_spmd(net, body);
  return net.stats().total();
}

}  // namespace conflux::simnet
