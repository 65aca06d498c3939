#include "rts/worker_pool.h"

#include <algorithm>

#include "common/macros.h"
#include "platform/affinity.h"

namespace sa::rts {

namespace {

// The caller's share. A throw out of fn ends the process, as it does on a
// pool thread: unwinding here would leave the pool threads running fn.
void RunShare(const std::function<void(int)>& fn, int worker) noexcept { fn(worker); }

}  // namespace

WorkerPool::WorkerPool(const platform::Topology& topology, Options options) {
  num_sockets_ = topology.num_sockets();
  workers_per_socket_.assign(num_sockets_, 0);

  // Enumerate (cpu, socket) pairs socket-major so that workers fill sockets
  // evenly when num_threads is smaller than the CPU count.
  std::vector<std::pair<int, int>> cpu_socket;
  size_t max_per_socket = 0;
  for (const auto& s : topology.sockets()) {
    max_per_socket = std::max(max_per_socket, s.cpus.size());
  }
  for (size_t i = 0; i < max_per_socket; ++i) {
    for (int s = 0; s < topology.num_sockets(); ++s) {
      const auto& cpus = topology.socket(s).cpus;
      if (i < cpus.size()) {
        cpu_socket.emplace_back(cpus[i], s);
      }
    }
  }

  // The calling thread takes the last CPU's place in a default pool.
  const int n = options.num_threads > 0 ? options.num_threads
                                        : static_cast<int>(cpu_socket.size()) - 1;
  worker_socket_.resize(n + 1);
  threads_.reserve(n);
  const bool pin = options.pin_threads && topology.is_host();
  for (int w = 0; w < n; ++w) {
    const auto [cpu, socket] = cpu_socket[w % cpu_socket.size()];
    worker_socket_[w] = socket;
    ++workers_per_socket_[socket];
    threads_.emplace_back([this, w, cpu, pin] { WorkerMain(w, cpu, pin); });
  }
  const int caller_socket = static_cast<int>(
      std::min_element(workers_per_socket_.begin(), workers_per_socket_.end()) -
      workers_per_socket_.begin());
  worker_socket_[n] = caller_socket;
  ++workers_per_socket_[caller_socket];
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void WorkerPool::RunOnAll(const std::function<void(int)>& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SA_CHECK_MSG(task_ == nullptr, "parallel regions cannot nest on one pool");
    task_ = &fn;
    // Each pool thread runs every generation once.
    outstanding_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  RunShare(fn, num_workers() - 1);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
  task_ = nullptr;
}

void WorkerPool::WorkerMain(int worker, int cpu, bool pin) {
  if (pin) {
    platform::PinThreadToCpu(cpu);  // best-effort, as in Callisto
  }
  uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(int)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || (task_ != nullptr && generation_ != seen_generation); });
      if (shutdown_) {
        return;
      }
      seen_generation = generation_;
      task = task_;
    }
    (*task)(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace sa::rts
