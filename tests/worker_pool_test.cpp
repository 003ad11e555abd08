// WorkerPool (src/load/worker_pool.hpp): the persistent pool behind the
// load generator's parallel actor phase.
//
// Pinned here:
//   * coverage — every round runs every shard exactly once, shard 0 on the
//     calling thread, for 10,000 consecutive rounds on one pool;
//   * exceptions — a throwing shard is rethrown on the caller after the
//     round, and the pool keeps working afterwards;
//   * a one-thread pool starts no threads, and an idle pool joins cleanly.
//
// The CI TSan leg (.github/workflows/ci.yml, sanitize "thread") runs this
// test with the rest of the suite, so the epoch/pending handshake is also
// checked for data races there.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "load/worker_pool.hpp"

namespace xchain::load {
namespace {

/// Threads of this process, or 0 where /proc is unavailable.
std::size_t process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  std::size_t n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

TEST(WorkerPool, EveryRoundRunsEveryShardOnce) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.shards(), 4u);
  // Plain ints, one per shard: the pool's handshake must order each
  // round's writes before the caller's reads (TSan checks it).
  std::vector<int> runs(pool.shards(), 0);
  std::vector<std::thread::id> ids(pool.shards());
  const std::function<void(unsigned)> job = [&](unsigned s) {
    ++runs[s];
    ids[s] = std::this_thread::get_id();
  };
  for (int round = 1; round <= 10000; ++round) {
    pool.run(job);
    for (unsigned s = 0; s < pool.shards(); ++s) {
      ASSERT_EQ(runs[s], round) << "shard " << s;
    }
  }
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), 4u);
}

TEST(WorkerPool, ThrowingShardIsRethrownOnCaller) {
  WorkerPool pool(3);
  std::atomic<int> finished{0};
  const std::function<void(unsigned)> job = [&](unsigned s) {
    if (s == 2) throw std::runtime_error("shard 2");
    if (s == 1) throw std::logic_error("shard 1");
    ++finished;
  };
  try {
    pool.run(job);
    FAIL() << "run() returned normally";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");  // the lowest throwing shard wins
  }
  EXPECT_EQ(finished.load(), 1);  // shard 0 ran to completion

  // Still usable, and the old exceptions are gone.
  std::atomic<int> ran{0};
  pool.run([&](unsigned) { ++ran; });
  EXPECT_EQ(ran.load(), 3);

  // The calling thread's own shard is caught the same way.
  EXPECT_THROW(pool.run([](unsigned s) {
    if (s == 0) throw std::runtime_error("shard 0");
  }),
               std::runtime_error);
  pool.run([&](unsigned) { ++ran; });
  EXPECT_EQ(ran.load(), 6);
}

TEST(WorkerPool, OneThreadPoolStartsNoThreads) {
  const std::size_t before = process_threads();
  for (unsigned threads : {0u, 1u}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.shards(), 1u);
    EXPECT_LE(process_threads(), before);
    std::thread::id ran_on;
    int runs = 0;
    pool.run([&](unsigned s) {
      EXPECT_EQ(s, 0u);
      ran_on = std::this_thread::get_id();
      ++runs;
    });
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
}

TEST(WorkerPool, IdlePoolJoinsCleanly) {
  // Destroyed without a single round, and after some.
  { WorkerPool pool(4); }
  {
    WorkerPool pool(4);
    pool.run([](unsigned) {});
  }
  // Destroyed right after a rethrow.
  {
    WorkerPool pool(2);
    EXPECT_THROW(pool.run([](unsigned s) {
      if (s == 1) throw std::runtime_error("shard 1");
    }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace xchain::load
