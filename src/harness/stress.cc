#include "harness/stress.h"

namespace ballista::harness {

StressProfile baseline_profile() { return {}; }

StressProfile handle_pressure_profile() {
  StressProfile p;
  p.extra_handles = 400;
  return p;
}

StressProfile memory_pressure_profile() {
  StressProfile p;
  p.heap_chunks = 256;
  return p;
}

StressProfile fs_clutter_profile() {
  StressProfile p;
  p.fs_clutter_files = 64;
  return p;
}

StressProfile aged_machine_profile() {
  StressProfile p;
  // Dies a few hundred kernel entries into the campaign — before the first
  // intrinsic crash, whose reboot would otherwise clear the wear ("have you
  // tried turning it off and on again" is mechanically sound on Win9x).
  p.wear_fuse_entries = 350;
  return p;
}

core::CampaignResult run_stressed_campaign(sim::OsVariant variant,
                                           const core::Registry& registry,
                                           const StressProfile& profile,
                                           core::CampaignOptions opt) {
  if (profile.wear_fuse_entries > 0) {
    const int fuse = profile.wear_fuse_entries;
    opt.machine_setup = [fuse](sim::Machine& m) { m.age_arena(fuse); };
  }
  if (profile.extra_handles > 0 || profile.heap_chunks > 0 ||
      profile.fs_clutter_files > 0) {
    const StressProfile p = profile;
    // Task set-up runs before the module window opens, where nothing
    // announces, so no step below can be cut.
    opt.task_setup = [p](sim::SimProcess& proc) {
      auto& fs = proc.machine().fs();
      for (int i = 0; i < p.fs_clutter_files; ++i) {
        const auto path = fs.parse("/tmp/clutter_" + std::to_string(i),
                                   sim::FileSystem::root_path());
        auto node = fs.create_file(path, false, false).value;
        if (node != nullptr && node->data().empty())
          node->edit_data().assign(64, static_cast<std::uint8_t>(i));
      }
      auto root = fs.resolve(fs.parse("/tmp/fixture.dat", proc.cwd()));
      for (int i = 0; i < p.extra_handles; ++i) {
        (void)proc.handles().insert(std::make_shared<sim::FileObject>(
            root, sim::FileObject::kAccessRead, false));
      }
      for (int i = 0; i < p.heap_chunks; ++i) {
        const sim::Addr a = proc.mem().alloc(64 + 16);
        proc.mem().poke_u64(a, 0x48454150'4348554eULL);
        proc.mem().poke_u64(a + 8, 64);
        proc.default_heap()->allocations[a + 16] = 64;
      }
    };
  }
  return core::Campaign::run(variant, registry, opt);
}

}  // namespace ballista::harness
