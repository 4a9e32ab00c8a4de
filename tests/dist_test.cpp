// Tests for the thread-SPMD World and the five Communicator collectives
// the distributed Assessor runs on: barrier, broadcast, scatterv,
// allgatherv and gatherv, plus rank-failure poisoning.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dist/communicator.hpp"

namespace imrdmd {
namespace {

TEST(World, RunsOneFunctionPerRank) {
  dist::World world(4);
  std::atomic<int> mask{0};
  world.run([&](dist::Communicator& comm) {
    mask.fetch_or(1 << comm.rank());
    EXPECT_EQ(comm.size(), 4);
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(World, RethrowsRankExceptions) {
  dist::World world(3);
  EXPECT_THROW(world.run([](dist::Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 failed");
  }),
               std::runtime_error);
}

TEST(World, RejectsZeroRanks) {
  EXPECT_THROW(dist::World(0), InvalidArgument);
}

TEST(World, RankFailureBetweenCollectivesPoisonsPeersInsteadOfDeadlocking) {
  // Regression: rank 2 throws between collectives while its peers block
  // inside allgatherv; before poisoning, the peers waited forever on a
  // barrier rank 2 would never enter and join() deadlocked. This test must
  // complete (no timeout) and surface the original exception, not the
  // secondary CollectiveAborted unwinds.
  dist::World world(4);
  try {
    world.run([](dist::Communicator& comm) {
      comm.barrier();  // align all ranks once
      if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
      const std::vector<double> mine{1.0};
      double sum = 0.0;
      for (const auto& slot : comm.allgatherv(mine)) sum += slot.at(0);
      EXPECT_EQ(sum, 4.0);  // unreachable unless the collective ran short
      // A rank that catches the poison must keep failing on further
      // collectives, never resynchronize into a half-dead world.
      comm.barrier();
    });
    FAIL() << "run must rethrow the rank failure";
  } catch (const dist::CollectiveAborted&) {
    FAIL() << "run surfaced a secondary unwind instead of the original";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }

  // The world stays usable: a later run() starts from a clean slate.
  std::atomic<int> mask{0};
  world.run([&](dist::Communicator& comm) {
    comm.barrier();
    mask.fetch_or(1 << comm.rank());
    comm.barrier();
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(World, PoisonWakesRanksAlreadyBlockedInABarrier) {
  // The failing rank never reaches any collective; peers are already
  // asleep inside the barrier when the poison lands and must be woken.
  dist::World world(3);
  EXPECT_THROW(world.run([](dist::Communicator& comm) {
                 if (comm.rank() == 0) {
                   std::this_thread::sleep_for(
                       std::chrono::milliseconds(50));
                   throw std::invalid_argument("rank 0 failed early");
                 }
                 comm.barrier();  // rank 0 will never arrive
               }),
               std::invalid_argument);
}

TEST(World, SurvivingRanksSeeCollectiveAborted) {
  dist::World world(3);
  std::atomic<int> aborted{0};
  try {
    world.run([&](dist::Communicator& comm) {
      if (comm.rank() == 1) throw std::runtime_error("primary");
      try {
        comm.barrier();
      } catch (const dist::CollectiveAborted&) {
        aborted.fetch_add(1);
        throw;
      }
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(aborted.load(), 2);
}

TEST(Communicator, BarrierSynchronizesPhases) {
  dist::World world(4);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> violated{false};
  world.run([&](dist::Communicator& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      phase_counter.fetch_add(1);
      comm.barrier();
      // After the barrier every rank must have bumped this phase's counter.
      if (phase_counter.load() < (phase + 1) * 4) violated = true;
      comm.barrier();
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST(Communicator, BroadcastReplicatesRoot) {
  dist::World world(3);
  world.run([&](dist::Communicator& comm) {
    std::vector<double> buffer(5, static_cast<double>(comm.rank()));
    comm.broadcast(std::span<double>(buffer.data(), buffer.size()), 2);
    for (double v : buffer) EXPECT_EQ(v, 2.0);
  });
}

TEST(Communicator, AllgathervPreservesRankBoundaries) {
  // Legitimately ragged payloads (and callers that must VALIDATE an
  // assumed-uniform length) need to know where one rank's contribution
  // ends and the next begins: allgatherv keeps the per-rank structure.
  // Rank r contributes r values here, including the empty contribution
  // from rank 0.
  dist::World world(4);
  world.run([&](dist::Communicator& comm) {
    std::vector<double> local(static_cast<std::size_t>(comm.rank()),
                              10.0 * comm.rank());
    const auto all =
        comm.allgatherv(std::span<const double>(local.data(), local.size()));
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t r = 0; r < all.size(); ++r) {
      ASSERT_EQ(all[r].size(), r) << "rank " << r;
      for (double v : all[r]) EXPECT_EQ(v, 10.0 * static_cast<double>(r));
    }
  });
}

TEST(Communicator, GathervOnlyRootReceivesWithBoundaries) {
  dist::World world(3);
  world.run([&](dist::Communicator& comm) {
    std::vector<double> local(static_cast<std::size_t>(comm.rank()) + 1,
                              static_cast<double>(comm.rank()));
    const auto all =
        comm.gatherv(std::span<const double>(local.data(), local.size()), 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 3u);
      for (std::size_t r = 0; r < 3; ++r) {
        ASSERT_EQ(all[r].size(), r + 1);
        EXPECT_EQ(all[r].front(), static_cast<double>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
    EXPECT_THROW(
        comm.gatherv(std::span<const double>(local.data(), local.size()), 7),
        InvalidArgument);
  });
}

TEST(Communicator, RepeatedCollectivesStayConsistent) {
  dist::World world(4);
  world.run([&](dist::Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      const std::vector<double> mine{static_cast<double>(comm.rank() + round)};
      double sum = 0.0;
      for (const auto& slot : comm.allgatherv(mine)) sum += slot.at(0);
      EXPECT_EQ(sum, 6.0 + 4.0 * round);
    }
  });
}

TEST(Communicator, ScattervSlicesAndCountDisagreementFailsEveryRank) {
  // scatterv is the engine's ingest collective: the root's buffer is the
  // rank-order concatenation of the slices, and each non-root pays wire
  // bytes for its own slice only (an empty slice costs nothing).
  const std::vector<std::size_t> counts{2, 0, 3, 1};
  const std::vector<std::vector<double>> want{{0, 1}, {}, {2, 3, 4}, {5}};
  dist::World world(4);
  world.run([&](dist::Communicator& comm) {
    const std::vector<double> send{0, 1, 2, 3, 4, 5};
    const std::vector<double> mine = comm.scatterv(
        comm.rank() == 1 ? send : std::vector<double>{}, counts, 1);
    const auto r = static_cast<std::size_t>(comm.rank());
    EXPECT_EQ(mine, want[r]) << "rank " << r;
    const std::uint64_t slice_bytes =
        comm.rank() == 1 ? 0 : counts[r] * sizeof(double);
    EXPECT_EQ(comm.wire_bytes(), slice_bytes) << "rank " << r;
  });

  // One rank disagreeing on the counts (same total, different split) makes
  // every rank throw DimensionError together instead of one rank
  // misparsing the root's payload while its peers wait on it.
  std::atomic<int> failures{0};
  EXPECT_THROW(world.run([&](dist::Communicator& comm) {
                 const std::vector<double> send{0, 1, 2, 3, 4, 5};
                 const std::vector<std::size_t> skewed{2, 3, 0, 1};
                 try {
                   comm.scatterv(comm.rank() == 1 ? send
                                                  : std::vector<double>{},
                                 comm.rank() == 2 ? skewed : counts, 1);
                 } catch (const DimensionError&) {
                   failures.fetch_add(1);
                   throw;
                 }
               }),
               DimensionError);
  EXPECT_EQ(failures.load(), 4);
}

}  // namespace
}  // namespace imrdmd
