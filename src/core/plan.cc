#include "core/plan.h"

#include <algorithm>

namespace ballista::core {

namespace {

/// Upper bound on dirty kernel entries a MuT can leave armed after it ends.
/// Only deferred hazards can leave a corrupted-but-alive machine; everything
/// else either panics inside its own case (reboot clears the fuse) or leaves
/// machine-wide state untouched.
std::uint64_t fuse_bound(const MuT& mut, const sim::Personality& pers) {
  if (!pers.has_shared_arena) return 0;
  if (mut.hazard_on(pers.variant) != CrashStyle::kDeferred) return 0;
  return static_cast<std::uint64_t>(std::max(pers.corruption_fuse, 0));
}

}  // namespace

Plan make_plan(sim::OsVariant variant, const Registry& registry,
               const PlanOptions& opt) {
  Plan plan;
  plan.variant = variant;
  const std::uint32_t gmask =
      opt.group_mask.value_or(kDefaultCampaignGroupMask);
  for (const MuT* mut : registry.for_variant(variant)) {
    if (opt.only_api && mut->api != *opt.only_api) continue;
    if ((gmask & group_bit(mut->group)) == 0) continue;
    plan.muts.push_back(mut);
  }

  const sim::Personality& pers = sim::personality_for(variant);
  const std::uint64_t slice =
      std::max<std::uint64_t>(opt.shard_cases, 1);

  std::vector<ShardItem> chain;
  // Worst-case kernel entries the pending corruption fuse may still burn; a
  // shard boundary is provably clean only when this reaches zero.
  std::uint64_t dirty = 0;

  auto emit = [&](std::vector<ShardItem> items) {
    Shard s;
    s.index = plan.shards.size();
    s.items = std::move(items);
    plan.shards.push_back(std::move(s));
  };
  auto close_chain = [&] {
    if (!chain.empty()) emit(std::move(chain));
    chain.clear();
  };

  for (std::size_t mi = 0; mi < plan.muts.size(); ++mi) {
    const MuT* mut = plan.muts[mi];
    const std::uint64_t planned =
        TupleGenerator(*mut, opt.cap, opt.seed).count();
    plan.total_planned += planned;

    if (opt.single_shard) {
      chain.push_back({mut, mi, {0, planned}, planned});
      continue;
    }

    const bool splittable = chain.empty() && dirty == 0 &&
                            mut->hazard_on(variant) == CrashStyle::kNone &&
                            planned > slice;
    if (splittable) {
      for (std::uint64_t first = 0; first < planned; first += slice)
        emit({{mut, mi, {first, std::min(slice, planned - first)}, planned}});
      continue;
    }

    chain.push_back({mut, mi, {0, planned}, planned});
    const std::uint64_t armed = fuse_bound(*mut, pers);
    if (armed > 0)
      dirty = armed;  // the fuse may arm as late as this MuT's final entry
    else
      dirty = dirty > planned ? dirty - planned : 0;
    if (dirty == 0) close_chain();
  }
  close_chain();
  return plan;
}

}  // namespace ballista::core
