#include "core/campaign.h"

#include "core/sched.h"

namespace ballista::core {

CampaignResult Campaign::run(sim::OsVariant variant, const Registry& registry,
                             const CampaignOptions& opt) {
  return run_engine(variant, registry, opt);
}

CampaignResult Campaign::run_sequential(sim::OsVariant variant,
                                        const Registry& registry,
                                        const CampaignOptions& opt) {
  PlanOptions popt;
  popt.cap = opt.cap;
  popt.seed = opt.seed;
  popt.only_api = opt.only_api;
  popt.group_mask = opt.group_mask;
  popt.single_shard = true;
  const Plan plan = make_plan(variant, registry, popt);
  std::vector<ShardOutcome> outcomes;
  sim::Machine machine(variant);
  for (const Shard& shard : plan.shards)
    outcomes.push_back(run_shard(machine, shard, opt));
  return merge_outcomes(plan, std::move(outcomes));
}

}  // namespace ballista::core
