// Planning layer of the campaign engine: enumerates (MuT, case-range) shards
// for one OS variant without ever touching a sim::Machine.
//
// A shard is the unit of work the scheduler hands to a worker.  Every shard
// starts on a freshly booted machine, so the plan may only cut a boundary at
// points where the sequential single-machine campaign is *guaranteed* to be
// in freshly-booted state too.  That guarantee is static:
//
//   - Only hazard-gated paths (MuT::hazard_on(v) != kNone) can mutate
//     machine-wide state that outlives a test case (the shared arena and the
//     deferred-corruption fuse); arena pages are kernel-only, so ordinary
//     user-mode writes can never land there.
//   - A kDeferred hazard can leave the machine corrupted-but-alive, and the
//     armed fuse panics within `Personality::corruption_fuse` further kernel
//     entries.  Each executed case makes at least one kernel entry, so the
//     "dirty window" after a deferred-hazard MuT is at most corruption_fuse
//     cases: by then the fuse has either panicked (reboot -> clean) or was
//     never armed (clean).
//   - A kImmediate hazard either panics inside its own case (campaign
//     reboots -> clean) or does nothing; it cannot leave residue.
//
// make_plan therefore chains a deferred-hazard MuT together with enough
// successor MuTs to burn the worst-case fuse, and emits the chain as one
// shard.  Hazard-free MuTs outside any chain are embarrassingly parallel and
// may additionally be split into case ranges.  The merge layer folds shard
// results back in plan order, which makes the parallel campaign bit-identical
// to the sequential baseline for the same seed by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/generator.h"
#include "core/registry.h"

namespace ballista::core {

/// Half-open run of case indices [first, first + count) of one MuT.
struct CaseRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// One MuT's contribution to a shard.  Chain shards carry whole MuTs
/// (range == [0, planned)); split shards carry a slice of a hazard-free MuT.
struct ShardItem {
  const MuT* mut = nullptr;
  /// Position in Plan::muts == position in CampaignResult::stats.
  std::size_t mut_index = 0;
  CaseRange range;
  /// Full TupleGenerator::count() for this MuT (may exceed range.count).
  std::uint64_t planned = 0;
};

struct Shard {
  /// Position in Plan::shards; the merge layer folds outcomes in this order.
  std::size_t index = 0;
  std::vector<ShardItem> items;

  std::uint64_t case_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& it : items) n += it.range.count;
    return n;
  }
};

struct PlanOptions {
  std::uint64_t cap = kDefaultCap;
  std::uint64_t seed = 0x8a11157a;
  std::optional<ApiKind> only_api;
  /// Bitmask over FuncGroup wire ids (core/groups.h group_bit).  Unset means
  /// the registry's default-campaign groups — NOT every group, so growth
  /// groups stay out of the committed golden baselines until opted in.
  std::optional<std::uint32_t> group_mask;
  /// Maximum case-range size when slicing hazard-free MuTs; larger MuTs are
  /// split into ceil(planned / shard_cases) shards.
  std::uint64_t shard_cases = 2048;
  /// Emit exactly one shard containing every MuT (exact sequential
  /// execution).  Required when CampaignOptions::machine_setup is set: the
  /// hook pre-ages the one legacy machine, so no boundary is provably clean.
  bool single_shard = false;
};

struct Plan {
  sim::OsVariant variant{};
  /// The filtered MuT list in registry order; CampaignResult::stats uses the
  /// same order and indexing.
  std::vector<const MuT*> muts;
  std::vector<Shard> shards;
  std::uint64_t total_planned = 0;
};

Plan make_plan(sim::OsVariant variant, const Registry& registry,
               const PlanOptions& opt);

}  // namespace ballista::core
