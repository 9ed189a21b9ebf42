// Kill-and-resume integration: a campaign whose writer dies mid-run — after
// any number of appended shards, with any torn tail — must resume into a
// merged CampaignResult bit-identical to an uninterrupted run, for every
// --jobs N and on hazard-chained and hazard-free variants alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/sched.h"
#include "store/store.h"
#include "tests/store_test_util.h"
#include "tests/test_util.h"

namespace ballista::store {
namespace {

using core::CampaignResult;
using sim::OsVariant;
using testing::expect_same_result;
using testing::shared_world;
using testing::TinyWorld;
using testing::tiny_options;

/// The simulated process death: thrown out of on_shard_complete, it aborts
/// Campaign::run exactly where a SIGKILL would have.
struct WriterKilled {};

// The pid keeps paths unique when ctest runs the gtest-discovered copy of a
// test and its aggregate entry (store_fuzz / store_resume) concurrently.
std::string temp_blog(const std::string& stem) {
  return ::testing::TempDir() + "ballista_" + stem + "." +
         std::to_string(::getpid()) + ".blog";
}

/// Writes a log whose writer dies after `kill_after` appended shards (plus a
/// torn half-frame tail), then resumes it and checks the merged result
/// against `reference`.
void kill_and_resume(const core::Registry& registry, OsVariant v,
                     const core::CampaignOptions& opt,
                     const CampaignResult& reference, std::size_t kill_after,
                     const std::string& label) {
  const std::string path = temp_blog("resume");
  const core::Plan plan = core::plan_for(v, registry, opt);
  ASSERT_GT(plan.shards.size(), kill_after) << label;

  std::size_t appended = 0;
  {
    std::string err;
    auto log = CampaignStore::create(path, make_run_header(plan, opt), &err);
    ASSERT_NE(log, nullptr) << err;
    core::CampaignOptions dying = opt;
    dying.on_shard_complete = [&](const core::ShardOutcome& o) {
      if (appended >= kill_after) throw WriterKilled{};
      ASSERT_TRUE(log->append_shard(o));
      ++appended;
    };
    EXPECT_THROW(core::Campaign::run(v, registry, dying), WriterKilled)
        << label;
  }
  // The kill interrupted a write in flight: leave a torn frame head behind.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char torn[] = {2, 0x40, 0};  // kShardOutcome, bogus partial length
    f.write(torn, sizeof torn);
  }

  StoreRun resumed = run_with_store(v, registry, opt, path, /*resume=*/true);
  ASSERT_TRUE(resumed.ok) << label << ": " << resumed.error;
  EXPECT_EQ(resumed.log_status, ReadStatus::kTruncated) << label;
  EXPECT_EQ(resumed.shards_reused, appended) << label;
  EXPECT_EQ(resumed.shards_reused + resumed.shards_executed,
            plan.shards.size())
      << label;
  expect_same_result(reference, resumed.result, label + " resumed");

  // The healed log is sealed: it loads back identical, with nothing re-run.
  StoreRun loaded = load_result(registry, path);
  ASSERT_TRUE(loaded.ok) << label << ": " << loaded.error;
  expect_same_result(reference, loaded.result, label + " loaded");
  std::remove(path.c_str());
}

TEST(StoreResume, KilledWriterResumesBitIdenticalOnWorldRegistry) {
  const auto& world = shared_world();
  // win98: deferred-hazard chains, catastrophic shards, crash traces.
  // nt4:   hazard-free, splittable plans.  linux: the POSIX personality.
  for (OsVariant v :
       {OsVariant::kWin98, OsVariant::kWinNT4, OsVariant::kLinux}) {
    core::CampaignOptions opt;
    opt.cap = 20;
    const CampaignResult reference =
        core::Campaign::run(v, world.registry, opt);
    const std::size_t shards =
        core::plan_for(v, world.registry, opt).shards.size();
    for (unsigned jobs : {1u, 3u}) {
      core::CampaignOptions jopt = opt;
      jopt.jobs = jobs;
      for (std::size_t kill_after : {std::size_t{0}, std::size_t{1},
                                     shards / 2}) {
        kill_and_resume(world.registry, v, jopt, reference, kill_after,
                        std::string(sim::variant_name(v)) + " jobs=" +
                            std::to_string(jobs) + " kill@" +
                            std::to_string(kill_after));
      }
    }
  }
}

TEST(StoreResume, ResumeOfASealedLogExecutesNothing) {
  const auto& world = shared_world();
  core::CampaignOptions opt;
  opt.cap = 20;
  const std::string path = temp_blog("sealed");
  const StoreRun first =
      run_with_store(OsVariant::kWinNT4, world.registry, opt, path, false);
  ASSERT_TRUE(first.ok) << first.error;

  const StoreRun again =
      run_with_store(OsVariant::kWinNT4, world.registry, opt, path, true);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.shards_executed, 0u);
  EXPECT_EQ(again.shards_reused, first.shards_executed);
  expect_same_result(first.result, again.result, "sealed resume");
  std::remove(path.c_str());
}

TEST(StoreResume, TruncationAtAnyByteResumesToTheIdenticalResult) {
  // Dense truncate-then-resume sweep on the tiny registry: every resumable
  // prefix must heal to the same final result; cuts inside the preamble or
  // header must fail loudly instead.
  TinyWorld tiny;
  const core::CampaignOptions opt = tiny_options();
  const OsVariant v = OsVariant::kWinNT4;
  const CampaignResult reference = core::Campaign::run(v, tiny.registry, opt);

  const std::string path = temp_blog("truncate_master");
  const StoreRun full = run_with_store(v, tiny.registry, opt, path, false);
  ASSERT_TRUE(full.ok) << full.error;
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  ASSERT_FALSE(bytes.empty());

  int resumed_ok = 0, refused = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); cut += 7) {
    const std::string stub = temp_blog("truncate_cut");
    {
      std::ofstream f(stub, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(cut));
    }
    const StoreRun run = run_with_store(v, tiny.registry, opt, stub, true);
    if (run.ok) {
      ++resumed_ok;
      expect_same_result(reference, run.result,
                         "cut@" + std::to_string(cut));
    } else {
      ++refused;
      EXPECT_EQ(run.log_status, ReadStatus::kBadHeader)
          << "cut@" << cut << ": " << run.error;
    }
    std::remove(stub.c_str());
  }
  EXPECT_GT(resumed_ok, 0);
  EXPECT_GT(refused, 0);  // the preamble/header region must refuse, not heal
}

}  // namespace
}  // namespace ballista::store
