// Tests for the shard cursor: one caller sees exact plan order, claims from
// any mix of worker ids come out in plan order, and real threads claim every
// shard exactly once (the tsan preset runs that torture test).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/workqueue.h"

namespace ballista::core {
namespace {

/// A bare plan skeleton: the queue only ever dereferences Shard::index.
Plan skeleton_plan(std::size_t shards) {
  Plan plan;
  plan.shards.resize(shards);
  for (std::size_t i = 0; i < shards; ++i) plan.shards[i].index = i;
  return plan;
}

TEST(ShardQueue, SingleWorkerSeesExactPlanOrder) {
  Plan plan = skeleton_plan(23);
  ShardQueue queue(plan, 1);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const Shard* s = queue.next(0);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->index, i);
  }
  EXPECT_EQ(queue.next(0), nullptr);
}

TEST(ShardQueue, AnyWorkerClaimsInPlanOrder) {
  Plan plan = skeleton_plan(12);
  ShardQueue queue(plan, 3);
  const unsigned workers[] = {2, 0, 0, 1, 2, 2, 1, 0, 1, 1, 0, 2};
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const Shard* s = queue.next(workers[i]);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->index, i);
  }
  for (unsigned w = 0; w < 3; ++w) EXPECT_EQ(queue.next(w), nullptr);
}

TEST(ShardQueue, TortureEveryShardClaimedExactlyOnce) {
  // N workers hammer one queue; every shard must be claimed by exactly one
  // worker.  Repeated across shapes (fewer shards than workers, large plans)
  // and rounds to shake out interleavings.
  for (const auto& [workers, shards] :
       std::vector<std::pair<unsigned, std::size_t>>{
           {2, 1}, {4, 3}, {4, 64}, {8, 1000}}) {
    for (int round = 0; round < 8; ++round) {
      Plan plan = skeleton_plan(shards);
      ShardQueue queue(plan, workers);
      std::vector<std::vector<std::size_t>> claimed(workers);
      std::vector<std::thread> threads;
      std::atomic<unsigned> gate{0};
      for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          gate.fetch_add(1);
          while (gate.load() < workers) {
          }  // start together: maximize contention
          while (const Shard* s = queue.next(w))
            claimed[w].push_back(s->index);
        });
      }
      for (auto& t : threads) t.join();
      std::set<std::size_t> all;
      std::size_t total = 0;
      for (const auto& c : claimed) {
        total += c.size();
        for (std::size_t i : c)
          EXPECT_TRUE(all.insert(i).second)
              << "shard " << i << " claimed twice (workers=" << workers
              << " shards=" << shards << " round=" << round << ")";
      }
      EXPECT_EQ(total, shards);
      EXPECT_EQ(all.size(), shards);
      // Drained queues stay drained for every caller.
      for (unsigned w = 0; w < workers; ++w)
        EXPECT_EQ(queue.next(w), nullptr);
    }
  }
}

}  // namespace
}  // namespace ballista::core
