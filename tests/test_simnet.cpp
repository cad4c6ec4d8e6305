// Tests for the simulated message-passing fabric: point-to-point semantics,
// tag matching, FIFO ordering, byte accounting, dry-run ghosts, SPMD error
// propagation.
#include <gtest/gtest.h>

#include <atomic>

#include "simnet/comm.hpp"
#include "simnet/spmd.hpp"

namespace conflux::simnet {
namespace {

TEST(Message, TagComposition) {
  const Tag t = make_tag(3, 17, 5);
  EXPECT_NE(t, make_tag(3, 17, 6));
  EXPECT_NE(t, make_tag(3, 18, 5));
  EXPECT_NE(t, make_tag(4, 17, 5));
  // Collective sub-tags (<< 8) must not collide with user tags.
  EXPECT_NE(t << 8, t);
}

TEST(Spmd, SendRecvDelivers) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<double>{1.0, 2.0, 3.0});
    } else {
      const auto got = comm.recv(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[1], 2.0);
    }
  });
}

TEST(Spmd, TagsSeparateStreams) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 100, std::vector<double>{1.0});
      comm.send(1, 200, std::vector<double>{2.0});
    } else {
      // Receive in the opposite order of sending: tags must match.
      EXPECT_EQ(comm.recv(0, 200).at(0), 2.0);
      EXPECT_EQ(comm.recv(0, 100).at(0), 1.0);
    }
  });
}

TEST(Spmd, FifoPerChannel) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i)
        comm.send(1, 5, std::vector<double>{static_cast<double>(i)});
    } else {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(comm.recv(0, 5).at(0), static_cast<double>(i));
    }
  });
}

TEST(Spmd, IntsRoundTripWith4ByteAccounting) {
  Network net(2);
  run_spmd(net, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> ints = {5, -7, 1 << 20};
      comm.send(1, 9, pack_ints(ints), ints.size() * sizeof(int));
    } else {
      const BufferView view = comm.recv_view(0, 9);
      const auto got = unpack_ints(view, view.logical_bytes() / sizeof(int));
      EXPECT_EQ(got, (std::vector<int>{5, -7, 1 << 20}));
    }
  });
  EXPECT_EQ(net.stats().total().bytes_sent, 3 * sizeof(int));
}

TEST(Spmd, GhostCarriesOnlySize) {
  Network net(2);
  run_spmd(net, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_ghost(1, 3, 12345);
    } else {
      EXPECT_EQ(comm.recv_ghost(0, 3), 12345u);
    }
  });
  EXPECT_EQ(net.stats().total().bytes_sent, 12345u);
  EXPECT_EQ(net.stats().total().messages_sent, 1u);
}

TEST(Spmd, SelfMessagesAreFree) {
  Network net(1);
  run_spmd(net, [](Comm& comm) {
    comm.send(0, 1, std::vector<double>{4.0});
    EXPECT_EQ(comm.recv(0, 1).at(0), 4.0);
  });
  EXPECT_EQ(net.stats().total().bytes_sent, 0u);
  EXPECT_EQ(net.stats().total().messages_sent, 0u);
}

TEST(Spmd, ExchangeSwapsBuffers) {
  run_spmd(2, [](Comm& comm) {
    const std::vector<double> mine = {static_cast<double>(comm.rank())};
    const auto theirs = comm.exchange(1 - comm.rank(), 11, mine);
    EXPECT_EQ(theirs.at(0), static_cast<double>(1 - comm.rank()));
  });
}

TEST(Stats, PerRankAccounting) {
  Network net(3);
  run_spmd(net, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<double>(10));
      comm.send(2, 1, std::vector<double>(20));
    } else {
      (void)comm.recv(0, 1);
    }
  });
  EXPECT_EQ(net.stats().rank_volume(0).bytes_sent, 30 * sizeof(double));
  EXPECT_EQ(net.stats().rank_volume(1).bytes_received, 10 * sizeof(double));
  EXPECT_EQ(net.stats().rank_volume(2).bytes_received, 20 * sizeof(double));
  EXPECT_EQ(net.stats().total().bytes_sent, net.stats().total().bytes_received);
  EXPECT_EQ(net.stats().max_rank_bytes(), 30 * sizeof(double));
  net.stats().reset();
  EXPECT_EQ(net.stats().total().bytes_sent, 0u);
}

TEST(Stats, MoveSendCountsBytes) {
  Network net(2);
  run_spmd(net, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(1000, 1.0);
      comm.send(1, 2, std::move(big));
    } else {
      EXPECT_EQ(comm.recv(0, 2).size(), 1000u);
    }
  });
  EXPECT_EQ(net.stats().total().bytes_sent, 8000u);
}

TEST(Spmd, ReturnsJobTotals) {
  const CommVolume total = run_spmd(4, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + 3) % comm.size();
    comm.send(next, 1, std::vector<double>(5));
    (void)comm.recv(prev, 1);
  });
  EXPECT_EQ(total.bytes_sent, 4 * 5 * sizeof(double));
  EXPECT_EQ(total.messages_sent, 4u);
}

TEST(Spmd, ExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      run_spmd(3,
               [](Comm& comm) {
                 if (comm.rank() == 0)
                   throw std::runtime_error("rank0 failed");
                 // Other ranks block on a message that never comes; the
                 // abort must wake them.
                 (void)comm.recv(0, 99);
               }),
      std::runtime_error);
}

TEST(Spmd, ContractViolationSurfaces) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& comm) {
                          if (comm.rank() == 1) CONFLUX_EXPECTS(false);
                          else
                            (void)comm.recv(1, 1);
                        }),
               ContractViolation);
}

TEST(Spmd, ManyRanksStress) {
  const int p = 64;
  std::atomic<int> sum{0};
  run_spmd(p, [&](Comm& comm) {
    // All-to-one then one-to-all over raw p2p.
    if (comm.rank() != 0) {
      comm.send(0, 1, std::vector<double>{static_cast<double>(comm.rank())});
      (void)comm.recv(0, 2);
    } else {
      int local = 0;
      for (int r = 1; r < p; ++r)
        local += static_cast<int>(comm.recv(r, 1).at(0));
      for (int r = 1; r < p; ++r) comm.send(r, 2, std::vector<double>{1.0});
      sum = local;
    }
  });
  EXPECT_EQ(sum.load(), p * (p - 1) / 2);
}

TEST(Network, AbortWakesReceivers) {
  Network net(2);
  EXPECT_THROW(run_spmd(net,
                        [&](Comm& comm) {
                          if (comm.rank() == 0) {
                            throw std::logic_error("bail");
                          }
                          (void)comm.recv(0, 1);  // must not hang
                        }),
               std::logic_error);
  EXPECT_TRUE(net.aborted());
}

TEST(Network, InvalidRankRejected) {
  Network net(2);
  EXPECT_THROW(net.deliver(0, 5, 1, Message{}), ContractViolation);
  EXPECT_THROW(Comm(net, 7), ContractViolation);
}

}  // namespace
}  // namespace conflux::simnet
