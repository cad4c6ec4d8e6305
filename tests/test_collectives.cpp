// Tests for the group collectives: correctness over rank-count sweeps,
// exact byte accounting of the tree shapes, ghost/real volume equivalence.
#include <gtest/gtest.h>

#include <cmath>

#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"

namespace conflux::simnet {
namespace {

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, BcastDeliversToAll) {
  const int p = GetParam();
  run_spmd(p, [&](Comm& comm) {
    const Group g = Group::iota(p);
    for (int root = 0; root < std::min(p, 3); ++root) {
      std::vector<double> data;
      if (comm.rank() == g.at(root))
        data = {1.0, 2.0, 3.0};
      bcast(comm, g, root, data, make_tag(1, static_cast<std::uint32_t>(root)));
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[2], 3.0);
    }
  });
}

TEST_P(CollectiveP, BcastVolumeIsTreeExact) {
  const int p = GetParam();
  Network net(p);
  run_spmd(net, [&](Comm& comm) {
    const Group g = Group::iota(p);
    std::vector<double> data(100, comm.rank() == 0 ? 1.0 : 0.0);
    bcast(comm, g, 0, data, make_tag(1, 0));
  });
  // A binomial tree transfers the buffer exactly p-1 times.
  EXPECT_EQ(net.stats().total().bytes_sent,
            static_cast<std::uint64_t>(p - 1) * 100 * sizeof(double));
}

TEST_P(CollectiveP, BcastGhostMatchesRealVolume) {
  const int p = GetParam();
  Network real(p), ghost(p);
  run_spmd(real, [&](Comm& comm) {
    const Group g = Group::iota(p);
    std::vector<double> data(57);
    bcast(comm, g, 0, data, make_tag(1, 0));
  });
  run_spmd(ghost, [&](Comm& comm) {
    const Group g = Group::iota(p);
    // A null payload is a ghost: every rank learns the wire size only.
    const BufferView got =
        bcast(comm, g, 0, nullptr, 57 * sizeof(double), make_tag(1, 0));
    EXPECT_EQ(got.logical_bytes(), 57 * sizeof(double));
    EXPECT_TRUE(got.empty());
  });
  EXPECT_EQ(real.stats().total().bytes_sent, ghost.stats().total().bytes_sent);
  EXPECT_EQ(real.stats().total().messages_sent,
            ghost.stats().total().messages_sent);
}

TEST_P(CollectiveP, ReduceSumsElementwise) {
  const int p = GetParam();
  run_spmd(p, [&](Comm& comm) {
    const Group g = Group::iota(p);
    std::vector<double> mine = {1.0, static_cast<double>(comm.rank())};
    reduce_sum(comm, g, 0, mine, make_tag(2, 0));
    if (comm.rank() == 0) {
      EXPECT_EQ(mine[0], static_cast<double>(p));
      EXPECT_EQ(mine[1], static_cast<double>(p * (p - 1) / 2));
    }
  });
}

TEST_P(CollectiveP, ReduceGhostMatchesRealVolume) {
  const int p = GetParam();
  Network real(p), ghost(p);
  run_spmd(real, [&](Comm& comm) {
    const Group g = Group::iota(p);
    std::vector<double> mine(31, 1.0);
    reduce_sum(comm, g, 0, mine, make_tag(2, 0));
  });
  run_spmd(ghost, [&](Comm& comm) {
    const Group g = Group::iota(p);
    reduce_ghost(comm, g, 0, 31 * sizeof(double), make_tag(2, 0));
  });
  EXPECT_EQ(real.stats().total().bytes_sent, ghost.stats().total().bytes_sent);
}

TEST_P(CollectiveP, AllreduceGivesEveryoneTheSum) {
  const int p = GetParam();
  run_spmd(p, [&](Comm& comm) {
    const Group g = Group::iota(p);
    std::vector<double> mine = {static_cast<double>(comm.rank() + 1)};
    allreduce_sum(comm, g, mine, make_tag(3, 0));
    EXPECT_EQ(mine[0], static_cast<double>(p * (p + 1) / 2));
  });
}

TEST_P(CollectiveP, MaxlocFindsGlobalWinner) {
  const int p = GetParam();
  run_spmd(p, [&](Comm& comm) {
    const Group g = Group::iota(p);
    // Rank p/2 holds the largest value.
    const double val = comm.rank() == p / 2 ? 100.0 : comm.rank();
    const MaxLoc win =
        allreduce_maxloc(comm, g, {val, comm.rank() * 10}, make_tag(4, 0));
    EXPECT_EQ(win.value, 100.0);
    EXPECT_EQ(win.location, (p / 2) * 10);
  });
}

TEST_P(CollectiveP, MaxlocTieBreaksOnLowestLocation) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  run_spmd(p, [&](Comm& comm) {
    const Group g = Group::iota(p);
    const MaxLoc win =
        allreduce_maxloc(comm, g, {5.0, comm.rank()}, make_tag(4, 1));
    EXPECT_EQ(win.location, 0);
  });
}

TEST_P(CollectiveP, BarrierSynchronizesWithZeroBytes) {
  const int p = GetParam();
  Network net(p);
  run_spmd(net, [&](Comm& comm) {
    const Group g = Group::iota(p);
    barrier(comm, g, make_tag(6, 0));
    barrier(comm, g, make_tag(6, 1));
  });
  EXPECT_EQ(net.stats().total().bytes_sent, 0u);
  if (p > 1) {
    EXPECT_GT(net.stats().total().messages_sent, 0u);
  }
}

TEST_P(CollectiveP, BcastIntsDelivers) {
  const int p = GetParam();
  run_spmd(p, [&](Comm& comm) {
    const Group g = Group::iota(p);
    // Only the root's payload and wire size travel.
    const std::vector<int> data = {3, -1, 4, 1 << 20, 5};
    const bool root = comm.rank() == 0;
    const BufferView got =
        bcast(comm, g, 0, root ? make_shared_buffer(pack_ints(data)) : nullptr,
              root ? data.size() * sizeof(int) : 0, make_tag(7, 0));
    EXPECT_EQ(unpack_ints(got, got.logical_bytes() / sizeof(int)), data);
  });
}

TEST_P(CollectiveP, BcastIntsVolumeIsExactly4BytesPerElement) {
  // The packed int path must account exactly sizeof(int) per element per
  // tree edge — the same volume a ghost broadcast of the int payload
  // reports (volume parity between the real and dry-run paths).
  const int p = GetParam();
  const std::size_t count = 57;
  Network real(p), ghost(p);
  run_spmd(real, [&](Comm& comm) {
    const Group g = Group::iota(p);
    const std::vector<int> data(count, 9);
    (void)bcast(comm, g, 0, make_shared_buffer(pack_ints(data)),
                count * sizeof(int), make_tag(7, 1));
  });
  run_spmd(ghost, [&](Comm& comm) {
    const Group g = Group::iota(p);
    (void)bcast(comm, g, 0, nullptr, count * sizeof(int), make_tag(7, 1));
  });
  EXPECT_EQ(real.stats().total().bytes_sent,
            static_cast<std::uint64_t>(p - 1) * count * sizeof(int));
  EXPECT_EQ(real.stats().total().bytes_sent, ghost.stats().total().bytes_sent);
  EXPECT_EQ(real.stats().total().messages_sent,
            ghost.stats().total().messages_sent);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 17));

TEST(Group, IndexOfAndIota) {
  const Group g = Group::iota(4);
  EXPECT_EQ(g.size(), 4);
  EXPECT_EQ(g.index_of(2), 2);
  EXPECT_EQ(g.index_of(9), -1);
}

TEST(Group, SubgroupCollective) {
  // A collective on a non-contiguous subgroup of a larger world.
  run_spmd(6, [](Comm& comm) {
    const Group g{{1, 3, 5}};
    if (g.index_of(comm.rank()) < 0) return;
    std::vector<double> mine = {1.0};
    allreduce_sum(comm, g, mine, make_tag(8, 0));
    EXPECT_EQ(mine[0], 3.0);
  });
}

TEST(Group, RootedBcastFromNonZeroRoot) {
  run_spmd(5, [](Comm& comm) {
    const Group g = Group::iota(5);
    std::vector<double> data;
    if (comm.rank() == 3) data = {9.0};
    bcast(comm, g, 3, data, make_tag(9, 0));
    EXPECT_EQ(data.at(0), 9.0);
  });
}

}  // namespace
}  // namespace conflux::simnet
