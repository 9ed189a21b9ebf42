// core::WorkerPool, the one place src/ starts threads.  The contracts under
// test: an exception from a worker raises the stop flag and is rethrown on
// the caller only once every worker has returned; the same threads serve
// every run; destruction stops and joins a started Work that still has work
// queued; and a pool of one worker runs inline on the calling thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/sched.h"

namespace ballista::core {
namespace {

void nap() { std::this_thread::sleep_for(std::chrono::microseconds(100)); }

TEST(WorkerPool, RethrowsAWorkersExceptionOnceEveryWorkerHasReturned) {
  WorkerPool pool(4);
  std::atomic<unsigned> returned{0};
  try {
    pool.run([&](unsigned w, const std::atomic<bool>& stop) {
      if (w == 2) throw std::runtime_error("worker 2");
      // The others return only once the throw has raised the stop flag.
      while (!stop.load()) nap();
      returned.fetch_add(1);
    });
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 2");
    EXPECT_EQ(returned.load(), 3u);
  }
  // The pool stays usable, with the stop flag lowered again.
  std::atomic<unsigned> ran{0};
  pool.run([&](unsigned, const std::atomic<bool>& stop) {
    EXPECT_FALSE(stop.load());
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 4u);
}

TEST(WorkerPool, TheSameThreadsServeEveryRun) {
  WorkerPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> runs[2];
  for (auto& ids : runs)
    pool.run([&](unsigned, const std::atomic<bool>&) {
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  EXPECT_EQ(runs[0].size(), 3u);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0].count(std::this_thread::get_id()), 0u);
}

TEST(WorkerPool, DestructionJoinsWithTasksStillQueued) {
  std::mutex mu;
  std::deque<int> tasks(100000);
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  {
    WorkerPool pool(4);
    pool.start([&](unsigned, const std::atomic<bool>& stop) {
      while (!stop.load()) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (tasks.empty()) return;
          tasks.pop_front();
        }
        running.fetch_add(1);
        nap();
        finished.fetch_add(1);
        running.fetch_sub(1);
      }
    });
    while (finished.load() < 8) nap();
  }
  EXPECT_EQ(running.load(), 0);  // a task that started also finished
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_FALSE(tasks.empty());
  EXPECT_EQ(static_cast<std::size_t>(finished.load()) + tasks.size(),
            100000u);
}

TEST(WorkerPool, RunsInlineAtOneWorker) {
  for (const unsigned workers : {0u, 1u}) {
    WorkerPool pool(workers);
    EXPECT_EQ(pool.size(), 1u);
    std::thread::id ran_on;
    pool.run([&](unsigned w, const std::atomic<bool>& stop) {
      EXPECT_EQ(w, 0u);
      EXPECT_FALSE(stop.load());
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_THROW(pool.run([](unsigned, const std::atomic<bool>&) {
                   throw std::runtime_error("inline");
                 }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace ballista::core
