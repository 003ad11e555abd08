#pragma once

// Persistent worker pool for the load generator's parallel actor phase.
//
// run_load hands the pool only ticks with at least a grain of active
// instances per shard (kShardGrain in load_gen.cpp), yet even those are
// far smaller jobs than starting a thread, so the pool starts its
// `threads - 1` workers once and parks them between rounds. A round is
// one run(job): the caller bumps an epoch counter and wakes the workers
// (std::atomic::wait/notify_all, a futex on Linux), runs shard 0 itself,
// then sleeps on a pending count until every worker has run its shard.
// No thread spins on its own account.
//
// A shard that throws does not end the program: its exception is kept, and
// run() rethrows the lowest-numbered shard's exception on the calling
// thread after every shard has finished, so no worker still touches the
// job's data. The pool stays usable after a rethrow.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace xchain::load {

class WorkerPool {
 public:
  /// Starts `threads - 1` workers (none for 0 or 1 threads).
  explicit WorkerPool(unsigned threads)
      : errors_(std::max(1u, threads)) {
    try {
      for (unsigned s = 1; s < errors_.size(); ++s) {
        workers_.emplace_back([this, s] { work(s); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~WorkerPool() { stop(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Shards per round: the caller plus one per worker.
  unsigned shards() const { return static_cast<unsigned>(errors_.size()); }

  /// Runs job(s) once for every shard s in [0, shards()), shard 0 on the
  /// calling thread, and returns when all of them have finished.
  void run(const std::function<void(unsigned)>& job) {
    job_ = &job;
    pending_.store(static_cast<unsigned>(workers_.size()),
                   std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    shard(0);
    for (unsigned left; (left = pending_.load(std::memory_order_acquire));) {
      pending_.wait(left, std::memory_order_acquire);
    }
    job_ = nullptr;
    std::exception_ptr first;
    for (std::exception_ptr& e : errors_) {
      if (e && !first) first = e;
      e = nullptr;
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  void shard(unsigned s) {
    try {
      (*job_)(s);
    } catch (...) {
      errors_[s] = std::current_exception();
    }
  }

  void work(unsigned s) {
    for (unsigned seen = 0;;) {
      epoch_.wait(seen, std::memory_order_acquire);
      seen = epoch_.load(std::memory_order_acquire);
      if (stopping_) return;
      shard(s);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  /// Wakes every worker into its exit and joins it.
  void stop() {
    stopping_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

  // Written by the caller before an epoch bump, read by workers after it.
  const std::function<void(unsigned)>* job_ = nullptr;
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;  // one slot per shard
  std::atomic<unsigned> epoch_{0};
  std::atomic<unsigned> pending_{0};
  std::vector<std::thread> workers_;  // last: the threads use every member
};

}  // namespace xchain::load
