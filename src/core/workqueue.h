// Shard claiming: one atomic cursor over the plan.
//
// Workers claim shards in plan order from a single fetch-and-add cursor, so
// at jobs 1 the one caller runs them in exactly plan order.  Shards are
// ~2,048-case, multi-millisecond units, so one claim per shard does not
// contend in practice; and merge is by shard index, so which worker claims
// a shard, and when, never reaches a result.
//
// The plan is immutable while the campaign runs and is built before any
// worker starts, so the cursor is the only shared state: one fetch_add per
// claim hands every shard out exactly once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/plan.h"

namespace ballista::core {

class ShardQueue {
 public:
  /// `workers` is ignored; only bench_record passes it.
  explicit ShardQueue(const Plan& plan, unsigned /*workers*/ = 1)
      : plan_(plan) {}

  /// Claims the next shard in plan order, or nullptr once every shard is
  /// claimed.  Each shard is returned exactly once across all callers.
  /// `worker` is ignored; only bench_record passes it.
  const Shard* next(unsigned /*worker*/ = 0) {
    const std::size_t i = cursor_.fetch_add(1);
    return i < plan_.shards.size() ? &plan_.shards[i] : nullptr;
  }

  /// Always 0: a single cursor has no steals to lose.  Only bench_record
  /// reads it.
  std::uint64_t contended_steals() const { return 0; }

 private:
  const Plan& plan_;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace ballista::core
