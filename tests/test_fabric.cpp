// Tests for the zero-copy fabric: shared immutable payloads, the multicast
// primitive and its accounting, the immutability/aliasing contract,
// FIFO-per-channel ordering under concurrent interleaved-tag stress, and
// reuse of one network across runs, aborted ones included.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "simnet/collectives.hpp"
#include "simnet/comm.hpp"
#include "simnet/spmd.hpp"

namespace conflux::simnet {
namespace {

TEST(Buffer, TakeCopiesPointToPointPayloads) {
  // A move-send's vector becomes the immutable payload; the receiver's
  // take() copies it out, so the receiver's storage is never the sender's.
  const double* sent = nullptr;
  const double* got = nullptr;
  run_spmd(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(1000, 3.0);
      sent = big.data();
      comm.send(1, 1, std::move(big));
    } else {
      const std::vector<double> out = comm.recv_view(0, 1).take();
      got = out.data();
      EXPECT_EQ(out.size(), 1000u);
      EXPECT_EQ(out[999], 3.0);
    }
  });
  EXPECT_NE(sent, got);
}

TEST(Buffer, TakeCopiesSharedPayloads) {
  // Shared (multicast) payloads are immutable: take() always copies, never
  // mutates the aliased storage.
  SharedBuffer buf = make_shared_buffer(std::vector<double>{4.0, 5.0});
  const SharedBuffer keep = buf;
  std::vector<double> out = BufferView(std::move(buf)).take();
  EXPECT_NE(out.data(), keep->data());
  EXPECT_EQ(out, (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ((*keep)[0], 4.0);
}

TEST(Multicast, RecipientsAliasOneBuffer) {
  const int p = 5;
  std::vector<const double*> seen(p, nullptr);
  run_spmd(p, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> dsts;
      for (int r = 1; r < p; ++r) dsts.push_back(r);
      comm.multicast(dsts, 1,
                     make_shared_buffer(std::vector<double>{7.0, 8.0}));
    } else {
      const BufferView view = comm.recv_view(0, 1);
      ASSERT_EQ(view.size(), 2u);
      EXPECT_EQ(view[1], 8.0);
      seen[static_cast<std::size_t>(comm.rank())] = view.data();
    }
  });
  // Zero-copy: every recipient observed the same physical storage.
  for (int r = 2; r < p; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)],
                                        seen[1]);
}

TEST(Multicast, TakeIsolatesRecipientMutations) {
  // The immutability contract: one recipient copying out and mutating must
  // not be observable by any other recipient of the same multicast.
  const int p = 4;
  run_spmd(p, [&](Comm& comm) {
    const Group world = Group::iota(p);
    if (comm.rank() == 0) {
      std::vector<int> dsts = {1, 2, 3};
      comm.multicast(dsts, 1,
                     make_shared_buffer(std::vector<double>{1.0, 2.0, 3.0}));
    } else if (comm.rank() == 1) {
      // Mutator: copies out and scribbles, then signals.
      std::vector<double> mine = comm.recv_view(0, 1).take();
      for (double& x : mine) x = -999.0;
      for (int r = 2; r < p; ++r) comm.send_ghost(r, 2, 0);
    } else {
      // Readers: hold the view across the mutator's scribble.
      const BufferView view = comm.recv_view(0, 1);
      (void)comm.recv_ghost(1, 2);  // mutation has happened by now
      EXPECT_EQ(view[0], 1.0);
      EXPECT_EQ(view[1], 2.0);
      EXPECT_EQ(view[2], 3.0);
    }
    // Reduce-then-broadcast: no rank leaves before every rank has arrived.
    (void)allreduce_maxloc(comm, world, {}, 99);
  });
}

TEST(Multicast, AccountingMatchesIndividualSends) {
  const int p = 6;
  Network net(p);
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> dsts = {1, 2, 3, 4, 5};
      comm.multicast(dsts, 3, make_shared_buffer(std::vector<double>(10)));
    } else {
      (void)comm.recv_view(0, 3);
    }
  });
  EXPECT_EQ(net.stats().total().bytes_sent, 5u * 10 * sizeof(double));
  EXPECT_EQ(net.stats().total().bytes_received, 5u * 10 * sizeof(double));
  EXPECT_EQ(net.stats().total().messages_sent, 5u);
  EXPECT_EQ(net.stats().rank_volume(0).bytes_sent, 5u * 10 * sizeof(double));
  EXPECT_EQ(net.stats().rank_volume(3).bytes_received, 10 * sizeof(double));
}

TEST(Multicast, SelfDeliveryIsFreeButDelivered) {
  Network net(2);
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> dsts = {0, 1};  // includes self, like the layer
                                       // multicasts in the 2.5D kernels
      comm.multicast(dsts, 7, make_shared_buffer(std::vector<double>{6.0}));
      EXPECT_EQ(comm.recv_view(0, 7)[0], 6.0);
    } else {
      EXPECT_EQ(comm.recv_view(0, 7)[0], 6.0);
    }
  });
  // The self-copy is free under the uniform remote-cost model.
  EXPECT_EQ(net.stats().total().bytes_sent, 1u * sizeof(double));
  EXPECT_EQ(net.stats().total().messages_sent, 1u);
}

TEST(Multicast, GhostAccountingMatchesReal) {
  const int p = 5;
  Network real(p), ghost(p);
  const std::vector<int> dsts = {1, 2, 3, 4};
  run_spmd(real, [&](Comm& comm) {
    if (comm.rank() == 0)
      comm.multicast(dsts, 1, make_shared_buffer(std::vector<double>(33)));
    else
      (void)comm.recv_view(0, 1);
  });
  run_spmd(ghost, [&](Comm& comm) {
    if (comm.rank() == 0)
      comm.multicast(dsts, 1, nullptr, 33 * sizeof(double));
    else
      EXPECT_EQ(comm.recv_ghost(0, 1), 33 * sizeof(double));
  });
  EXPECT_EQ(real.stats().total().bytes_sent, ghost.stats().total().bytes_sent);
  EXPECT_EQ(real.stats().total().messages_sent,
            ghost.stats().total().messages_sent);
}

/// Many ranks, two concurrent senders per receiver (at distances 1 and
/// `far`) on the same tags, interleaved: per-(source, destination, tag)
/// channels must each stay FIFO even though messages of different tags —
/// and, where the two sources share a channel slot, of different sources —
/// interleave arbitrarily in one mailbox.
void interleaved_tag_stress(int p, int far) {
  const int per_tag = 40;
  const Tag tags[] = {11, 22, 33};
  Network net(p);
  run_spmd(net, [&](Comm& comm) {
    const int me = comm.rank();
    const int next = (me + 1) % p;
    const int prev = (me + p - 1) % p;
    const int next_far = (me + far) % p;
    const int prev_far = (me + p - far) % p;
    // Round-robin the tag streams so their messages interleave per channel.
    for (int i = 0; i < per_tag; ++i) {
      for (Tag t : tags) {
        const std::vector<double> msg = {static_cast<double>(i), double(t),
                                         static_cast<double>(me)};
        comm.send(next, t, msg);
        comm.send(next_far, t, msg);
      }
    }
    // Drain tag by tag in reverse send order, alternating which source
    // goes first: whichever stream reached a shared slot first, some
    // receive asks for the other one while the first one's same-tag
    // messages still wait ahead of it. Within each channel, ordering must
    // still be send order.
    auto expect = [&](int src, Tag t, int i) {
      const BufferView v = comm.recv_view(src, t);
      EXPECT_EQ(v[0], static_cast<double>(i));
      EXPECT_EQ(v[1], static_cast<double>(t));
      EXPECT_EQ(v[2], static_cast<double>(src));
    };
    for (std::size_t k = std::size(tags); k-- > 0;) {
      const int first = k % 2 == 0 ? prev_far : prev;
      const int second = first == prev ? prev_far : prev;
      for (int i = 0; i < per_tag; ++i) expect(first, tags[k], i);
      for (int i = 0; i < per_tag; ++i) expect(second, tags[k], i);
    }
  });
}

TEST(Fabric, FifoPerChannelUnderInterleavedTagStress) {
  // P = 16: every source has a channel slot of its own.
  interleaved_tag_stress(16, 2);
  // P = 80 > 64 channel slots: sources r and r + 64 share a slot, so
  // receivers 65..79 find both streams (from me - 1 and me - 65) in one
  // mailbox, and a receive must match the source as well as the tag.
  interleaved_tag_stress(80, 65);
}

TEST(NetworkReuse, StatsAccumulateAcrossRuns) {
  Network net(2);
  const auto body = [](Comm& comm) {
    if (comm.rank() == 0)
      comm.send(1, 1, std::vector<double>(4));
    else
      (void)comm.recv_view(0, 1);
  };
  run_spmd(net, body);
  run_spmd(net, body);
  EXPECT_EQ(net.stats().total().bytes_sent, 2u * 4 * sizeof(double));
  EXPECT_EQ(net.stats().total().messages_sent, 2u);
}

TEST(NetworkReuse, RecoversAfterAbortedRun) {
  Network net(3);
  EXPECT_THROW(run_spmd(net,
                        [](Comm& comm) {
                          if (comm.rank() == 0)
                            throw std::runtime_error("boom");
                          // Leave a stale message behind, then block.
                          comm.send(2, 5, std::vector<double>{1.0});
                          (void)comm.recv_view(0, 99);
                        }),
               std::runtime_error);
  EXPECT_TRUE(net.aborted());
  // A later run over the same network starts from a clean fabric: the abort
  // flag resets and rank 2 must not see rank 1's stale tag-5 message.
  std::atomic<int> clean{0};
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(2, 5, std::vector<double>{2.0});
    } else if (comm.rank() == 2) {
      if (comm.recv_view(1, 5)[0] == 2.0) clean.fetch_add(1);
    }
  });
  EXPECT_FALSE(net.aborted());
  EXPECT_EQ(clean.load(), 1);
}

TEST(Fabric, EveryDeliveredMessageIsReceived) {
  // Send/receive parity: after a drained run, the messages_received counter
  // must equal messages_sent — p2p sends, ghosts and multicasts alike
  // (multicasts count per remote destination on both sides; self-deliveries
  // on neither).
  const int p = 6;
  Network net(p);
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> dsts = {0, 1, 2, 3, 4, 5};  // includes free self-copy
      comm.multicast(dsts, 1, make_shared_buffer(std::vector<double>(8)));
      (void)comm.recv_view(0, 1);
      comm.send_ghost(1, 2, 64);
    } else {
      (void)comm.recv_view(0, 1);
      if (comm.rank() == 1) {
        (void)comm.recv_ghost(0, 2);
        comm.send(2, 3, std::vector<double>{1.0});
      }
      if (comm.rank() == 2) (void)comm.recv_view(1, 3);
    }
  });
  const CommVolume total = net.stats().total();
  EXPECT_EQ(total.messages_sent, 5u + 1 + 1);  // 5 remote mcast + ghost + p2p
  EXPECT_EQ(total.messages_received, total.messages_sent);
  EXPECT_EQ(total.bytes_received, total.bytes_sent);
}

TEST(Fabric, ManyToOneContention) {
  // All ranks hammer one receiver's channels concurrently; counts and
  // per-source FIFO must survive.
  const int p = 32;
  const int msgs = 25;
  Network net(p);
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int r = 1; r < p; ++r)
        for (int i = 0; i < msgs; ++i)
          EXPECT_EQ(comm.recv_view(r, 4)[0], static_cast<double>(i));
    } else {
      for (int i = 0; i < msgs; ++i)
        comm.send(0, 4, std::vector<double>{static_cast<double>(i)});
    }
  });
  EXPECT_EQ(net.stats().total().messages_sent,
            static_cast<std::uint64_t>(p - 1) * msgs);
}

TEST(NetworkReuse, SurvivesRepeatedRandomizedAborts) {
  // ConfChaos stress: hammer one network with runs that abort at an
  // LCG-randomized (rank, step), then prove the fabric is unpoisoned — a
  // final clean run must move exactly the bytes a fresh network moves,
  // bit-identically, and every abort must land in the aggregated failure
  // report naming the aborting rank.
  const int p = 6;
  const int steps = 4;
  auto ring = [&](Comm& comm, int abort_rank, int abort_step) {
    for (int s = 0; s < steps; ++s) {
      if (comm.rank() == abort_rank && s == abort_step)
        throw std::runtime_error("chaos abort @rank " +
                                 std::to_string(comm.rank()));
      comm.send((comm.rank() + 1) % p, make_tag(1, unsigned(s)),
                std::vector<double>(16, double(s)));
      (void)comm.recv_view((comm.rank() + p - 1) % p,
                           make_tag(1, unsigned(s)));
    }
  };
  // Reference volume of one clean run, from a pristine network.
  Network fresh(p);
  run_spmd(fresh, [&](Comm& comm) { ring(comm, -1, -1); });
  const CommVolume want = fresh.stats().total();

  Network net(p);
  std::uint64_t rng = 0xC0FFEE;
  for (int iter = 0; iter < 10; ++iter) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const int abort_rank = static_cast<int>((rng >> 33) % p);
    const int abort_step = static_cast<int>((rng >> 13) % steps);
    EXPECT_THROW(
        run_spmd(net,
                 [&](Comm& comm) { ring(comm, abort_rank, abort_step); }),
        std::runtime_error);
    EXPECT_TRUE(net.aborted());
    // The aborting rank is named in the aggregated report.
    bool named = false;
    for (const auto& failure : net.failure_report())
      if (failure.rank == abort_rank &&
          failure.message.find("chaos abort") != std::string::npos)
        named = true;
    EXPECT_TRUE(named) << "iter " << iter << " rank " << abort_rank;
  }

  // StatsBoard accumulates across runs, so compare the clean run's delta.
  const CommVolume before = net.stats().total();
  run_spmd(net, [&](Comm& comm) { ring(comm, -1, -1); });
  const CommVolume after = net.stats().total();
  EXPECT_EQ(after.bytes_sent - before.bytes_sent, want.bytes_sent);
  EXPECT_EQ(after.messages_sent - before.messages_sent, want.messages_sent);
  EXPECT_EQ(after.bytes_received - before.bytes_received,
            want.bytes_received);
  EXPECT_FALSE(net.aborted());
}

}  // namespace
}  // namespace conflux::simnet
