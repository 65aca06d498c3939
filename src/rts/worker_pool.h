// Callisto-RTS-style worker pool (paper §2.2).
//
// A fixed set of pool threads, created once and pinned to CPUs socket-major
// (Callisto pins threads and they "do not move during execution", §5), plus
// the thread that starts a parallel region: it runs the last worker id
// beside the pool threads instead of sleeping until they finish. Work is
// dispatched to all workers at once; parallel loops on top (parallel_for.h)
// distribute iterations dynamically in batches.
#ifndef SA_RTS_WORKER_POOL_H_
#define SA_RTS_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/topology.h"

namespace sa::rts {

class WorkerPool {
 public:
  struct Options {
    // Pool threads to spawn; the calling thread is one worker more. 0 means
    // one thread fewer than the topology has CPUs, so a default pool has one
    // worker per CPU and a 1-CPU topology runs every region on the caller.
    int num_threads = 0;
    // Pin pool threads to their CPU when the topology is the host's. The
    // calling thread is never pinned.
    bool pin_threads = true;
  };

  explicit WorkerPool(const platform::Topology& topology) : WorkerPool(topology, Options()) {}
  WorkerPool(const platform::Topology& topology, Options options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Pool threads plus the calling thread, whose id is the last one.
  int num_workers() const { return static_cast<int>(worker_socket_.size()); }
  // Socket the worker is (logically) pinned to. The caller's is the socket
  // with the fewest pool threads, the lowest id on a tie.
  int worker_socket(int worker) const { return worker_socket_[worker]; }
  int num_sockets() const { return num_sockets_; }
  // Workers per socket, the caller included.
  const std::vector<int>& workers_per_socket() const { return workers_per_socket_; }

  // Runs fn(worker_id) for every worker id and returns when all have
  // finished: the calling thread runs fn(num_workers() - 1) while the pool
  // threads run the other ids. Not reentrant; one parallel region at a time
  // (matching Callisto's model of one loop executing over the pool), and a
  // second region dies while one runs.
  void RunOnAll(const std::function<void(int)>& fn);

 private:
  void WorkerMain(int worker, int cpu, bool pin);

  std::vector<int> worker_socket_;
  std::vector<int> workers_per_socket_;
  int num_sockets_ = 1;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // The running region's fn (null when the pool is idle); guarded by mu_.
  const std::function<void(int)>* task_ = nullptr;
  uint64_t generation_ = 0;
  int outstanding_ = 0;
  bool shutdown_ = false;
  // Declared last: the pool threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace sa::rts

#endif  // SA_RTS_WORKER_POOL_H_
