#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rts/worker_pool.h"

namespace sa::rts {
namespace {

WorkerPool::Options Unpinned(int threads) {
  WorkerPool::Options o;
  o.num_threads = threads;
  o.pin_threads = false;
  return o;
}

TEST(WorkerPoolTest, DefaultSizeMatchesTopology) {
  const auto topo = platform::Topology::Synthetic(2, 4);
  WorkerPool pool(topo, Unpinned(0));
  EXPECT_EQ(pool.num_workers(), 8);
  EXPECT_EQ(pool.num_sockets(), 2);
  EXPECT_EQ(pool.workers_per_socket()[0], 4);
  EXPECT_EQ(pool.workers_per_socket()[1], 4);
}

TEST(WorkerPoolTest, WorkersFillSocketsEvenly) {
  const auto topo = platform::Topology::Synthetic(2, 4);
  WorkerPool pool(topo, Unpinned(3));
  // Socket-major interleaving: 3 pool threads and the caller on 2 sockets,
  // 2 per socket.
  EXPECT_EQ(pool.workers_per_socket()[0], 2);
  EXPECT_EQ(pool.workers_per_socket()[1], 2);
}

TEST(WorkerPoolTest, RunOnAllReachesEveryWorkerOnce) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  WorkerPool pool(topo, Unpinned(3));
  std::vector<std::atomic<int>> hits(pool.num_workers());
  pool.RunOnAll([&](int w) { ++hits[w]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPoolTest, SequentialRegionsReuseWorkers) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  WorkerPool pool(topo, Unpinned(1));
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.RunOnAll([&](int) { ++total; });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(WorkerPoolTest, WorkerSocketAssignmentIsConsistent) {
  const auto topo = platform::Topology::Synthetic(2, 3);
  WorkerPool pool(topo, Unpinned(5));
  int per_socket[2] = {0, 0};
  for (int w = 0; w < pool.num_workers(); ++w) {
    const int s = pool.worker_socket(w);
    ASSERT_TRUE(s == 0 || s == 1);
    ++per_socket[s];
  }
  EXPECT_EQ(per_socket[0], 3);
  EXPECT_EQ(per_socket[1], 3);
}

TEST(WorkerPoolTest, HostPoolRunsPinned) {
  // On the host topology pinning is attempted; the pool must still work
  // whether or not the affinity call succeeds.
  const auto topo = platform::Topology::Host();
  WorkerPool pool(topo);
  std::atomic<int> count{0};
  pool.RunOnAll([&](int) { ++count; });
  EXPECT_EQ(count.load(), pool.num_workers());
}

TEST(WorkerPoolTest, CallerRunsTheLastIdAndEveryIdRunsOnce) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  WorkerPool pool(topo, Unpinned(3));
  ASSERT_EQ(pool.num_workers(), 4);
  const int caller = 3;
  std::vector<std::atomic<int>> hits(pool.num_workers());
  std::vector<std::thread::id> ran_on(pool.num_workers());
  pool.RunOnAll([&](int w) {
    ++hits[w];
    ran_on[w] = std::this_thread::get_id();
  });
  for (int w = 0; w < pool.num_workers(); ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
    if (w == caller) {
      EXPECT_EQ(ran_on[w], std::this_thread::get_id());
    } else {
      EXPECT_NE(ran_on[w], std::this_thread::get_id()) << "worker " << w;
    }
  }
  EXPECT_EQ(std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size(), 4u);
}

TEST(WorkerPoolTest, CallerTakesTheSocketWithTheFewestThreads) {
  const auto topo = platform::Topology::Synthetic(2, 4);
  // Threads on sockets 0, 1, 0: the caller goes to socket 1.
  WorkerPool three(topo, Unpinned(3));
  EXPECT_EQ(three.worker_socket(three.num_workers() - 1), 1);
  // Threads on sockets 0, 1, 0, 1: a tie goes to socket 0.
  WorkerPool four(topo, Unpinned(4));
  EXPECT_EQ(four.worker_socket(four.num_workers() - 1), 0);
  EXPECT_EQ(four.workers_per_socket()[0], 3);
  EXPECT_EQ(four.workers_per_socket()[1], 2);
}

// Threads of this process, from /proc (0 where it is not mounted).
int ProcessThreads() {
  std::error_code ec;
  int n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(WorkerPoolTest, OneCpuDefaultPoolIsTheCallerAlone) {
  const auto topo = platform::Topology::Synthetic(1, 1);
  const int threads_before = ProcessThreads();
  WorkerPool pool(topo, Unpinned(0));
  EXPECT_EQ(ProcessThreads(), threads_before);
  ASSERT_EQ(pool.num_workers(), 1);
  EXPECT_EQ(pool.workers_per_socket()[0], 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.RunOnAll([&](int w) {
    EXPECT_EQ(w, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace sa::rts
