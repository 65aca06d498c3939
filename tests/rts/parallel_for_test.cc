#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "rts/parallel_for.h"

namespace sa::rts {
namespace {

class ParallelForTest : public ::testing::TestWithParam<Scheduling> {
 protected:
  ParallelForTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, WorkerPool::Options{.num_threads = 3, .pin_threads = false}) {}

  platform::Topology topo_;
  WorkerPool pool_;
};

TEST_P(ParallelForTest, EveryIterationRunsExactlyOnce) {
  constexpr uint64_t kN = 100'000;
  std::vector<std::atomic<uint8_t>> seen(kN);
  ParallelFor(pool_, 0, kN, 1024,
              [&](int, uint64_t b, uint64_t e) {
                for (uint64_t i = b; i < e; ++i) {
                  seen[i].fetch_add(1);
                }
              },
              GetParam());
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "iteration " << i;
  }
}

TEST_P(ParallelForTest, NonZeroBeginHandled) {
  std::atomic<uint64_t> sum{0};
  ParallelFor(pool_, 500, 1500, 64,
              [&](int, uint64_t b, uint64_t e) {
                uint64_t local = 0;
                for (uint64_t i = b; i < e; ++i) {
                  local += i;
                }
                sum += local;
              },
              GetParam());
  uint64_t want = 0;
  for (uint64_t i = 500; i < 1500; ++i) {
    want += i;
  }
  EXPECT_EQ(sum.load(), want);
}

TEST_P(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  ParallelFor(pool_, 10, 10, 64, [&](int, uint64_t, uint64_t) { ++calls; }, GetParam());
  ParallelFor(pool_, 10, 5, 64, [&](int, uint64_t, uint64_t) { ++calls; }, GetParam());
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ParallelForTest, GrainLargerThanRange) {
  std::atomic<uint64_t> iters{0};
  ParallelFor(pool_, 0, 100, 1 << 20,
              [&](int, uint64_t b, uint64_t e) { iters += e - b; }, GetParam());
  EXPECT_EQ(iters.load(), 100u);
}

TEST_P(ParallelForTest, ReduceMatchesSerial) {
  constexpr uint64_t kN = 200'000;
  const uint64_t got = ParallelReduce<uint64_t>(
      pool_, 0, kN, 1 << 12,
      [](int, uint64_t b, uint64_t e) {
        uint64_t s = 0;
        for (uint64_t i = b; i < e; ++i) {
          s += i * 3 + 1;
        }
        return s;
      },
      GetParam());
  uint64_t want = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    want += i * 3 + 1;
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulings, ParallelForTest,
                         ::testing::Values(Scheduling::kDynamicGlobal,
                                           Scheduling::kDynamicPerSocket, Scheduling::kStatic),
                         [](const auto& p) {
                           switch (p.param) {
                             case Scheduling::kDynamicGlobal:
                               return "DynamicGlobal";
                             case Scheduling::kDynamicPerSocket:
                               return "DynamicPerSocket";
                             case Scheduling::kStatic:
                               return "Static";
                           }
                           return "Unknown";
                         });

TEST(ParallelForStatsTest, StatsAccountForAllIterations) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  WorkerPool pool(topo, WorkerPool::Options{.num_threads = 3, .pin_threads = false});
  LoopStats stats;
  constexpr uint64_t kN = 64 * 1024;
  ParallelFor(pool, 0, kN, 1024, [](int, uint64_t, uint64_t) {},
              Scheduling::kDynamicPerSocket, &stats);
  EXPECT_EQ(std::accumulate(stats.iters_per_worker.begin(), stats.iters_per_worker.end(),
                            uint64_t{0}),
            kN);
  const uint64_t batches = std::accumulate(stats.batches_per_worker.begin(),
                                           stats.batches_per_worker.end(), uint64_t{0});
  EXPECT_EQ(batches, kN / 1024);
}

TEST(ParallelForStatsTest, DynamicDistributionUsesMultipleWorkers) {
  // On a single-CPU host one worker can drain every batch before the others
  // are scheduled, so overlap is forced: the first worker to claim a batch
  // parks until a second worker has claimed one too (bounded wait).
  const auto topo = platform::Topology::Synthetic(2, 2);
  WorkerPool pool(topo, WorkerPool::Options{.num_threads = 3, .pin_threads = false});
  LoopStats stats;
  std::atomic<int> claimers{0};
  std::atomic<bool> done_waiting{false};
  ParallelFor(pool, 0, 1 << 16, 256,
              [&](int, uint64_t, uint64_t) {
                claimers.fetch_add(1);
                if (!done_waiting.exchange(true)) {
                  // First claimer: yield until someone else shows up.
                  const auto deadline =
                      std::chrono::steady_clock::now() + std::chrono::seconds(5);
                  while (claimers.load() < 2 &&
                         std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::yield();
                  }
                }
              },
              Scheduling::kDynamicGlobal, &stats);
  int active_workers = 0;
  for (const uint64_t n : stats.batches_per_worker) {
    active_workers += n > 0 ? 1 : 0;
  }
  EXPECT_GE(active_workers, 2);
}

TEST(ParallelForStatsTest, WorkersNeverReturnHomeAfterStealing) {
  // Deterministic home-first property: each worker drains its own socket's
  // sub-range before stealing, so once a worker claims a foreign batch it
  // never claims a home batch again — independent of host scheduling.
  const auto topo = platform::Topology::Synthetic(2, 1);
  WorkerPool pool(topo, WorkerPool::Options{.num_threads = 1, .pin_threads = false});
  constexpr uint64_t kN = 64 * 1024;
  std::vector<std::vector<uint64_t>> order(pool.num_workers());
  ParallelFor(pool, 0, kN, 1024,
              [&](int worker, uint64_t b, uint64_t) { order[worker].push_back(b); },
              Scheduling::kDynamicPerSocket);
  for (int w = 0; w < pool.num_workers(); ++w) {
    const int home = pool.worker_socket(w);
    // Balanced pool: region split at kN/2; home region of socket s is half s.
    bool stole = false;
    for (const uint64_t b : order[w]) {
      const bool is_home = (home == 0) == (b < kN / 2);
      if (!is_home) {
        stole = true;
      } else {
        EXPECT_FALSE(stole) << "worker " << w << " claimed home batch " << b
                            << " after stealing";
      }
    }
  }
}

TEST(ParallelForDeathTest, RejectsZeroGrain) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  WorkerPool pool(topo, WorkerPool::Options{.num_threads = 2, .pin_threads = false});
  EXPECT_DEATH(ParallelFor(pool, 0, 10, 0, [](int, uint64_t, uint64_t) {}), "grain");
}

constexpr Scheduling kAllSchedulings[] = {Scheduling::kDynamicGlobal,
                                           Scheduling::kDynamicPerSocket, Scheduling::kStatic};

TEST(ParallelForCallerTest, OneCpuDefaultPoolRunsLoopsOnTheCaller) {
  const auto topo = platform::Topology::Synthetic(1, 1);
  WorkerPool pool(topo, WorkerPool::Options{.num_threads = 0, .pin_threads = false});
  ASSERT_EQ(pool.num_workers(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  for (const Scheduling scheduling : kAllSchedulings) {
    constexpr uint64_t kN = 100'000;
    std::vector<uint8_t> seen(kN, 0);
    ParallelFor(pool, 0, kN, 1024,
                [&](int worker, uint64_t b, uint64_t e) {
                  EXPECT_EQ(worker, 0);
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  for (uint64_t i = b; i < e; ++i) {
                    ++seen[i];
                  }
                },
                scheduling);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<std::ptrdiff_t>(kN));
    const uint64_t got = ParallelReduce<uint64_t>(
        pool, 0, kN, 1 << 12,
        [](int, uint64_t b, uint64_t e) {
          uint64_t s = 0;
          for (uint64_t i = b; i < e; ++i) {
            s += i * 3 + 1;
          }
          return s;
        },
        scheduling);
    EXPECT_EQ(got, 3 * (kN * (kN - 1) / 2) + kN);
  }
}

TEST(ParallelForDeathTest, NestingOnABusyPoolDies) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  const WorkerPool::Options options{.num_threads = 1, .pin_threads = false};
  // Pools are built inside each death statement: the forked child only
  // inherits the calling thread.
  // A loop inside a loop, on whichever worker gets there first.
  EXPECT_DEATH(
      {
        WorkerPool pool(topo, options);
        ParallelFor(pool, 0, 1 << 12, 64, [&](int, uint64_t, uint64_t) {
          ParallelFor(pool, 0, 1 << 12, 64, [](int, uint64_t, uint64_t) {});
        });
      },
      "parallel regions cannot nest on one pool");
  // A loop on a pool thread while the caller runs its share.
  EXPECT_DEATH(
      {
        WorkerPool pool(topo, options);
        pool.RunOnAll([&](int worker) {
          if (worker != pool.num_workers() - 1) {
            ParallelFor(pool, 0, 1 << 12, 64, [](int, uint64_t, uint64_t) {});
          }
        });
      },
      "parallel regions cannot nest on one pool");
}

}  // namespace
}  // namespace sa::rts
