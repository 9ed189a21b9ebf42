// Integration tests: the assembled world must have the paper's shape — call
// counts, Catastrophic sets (Table 3), failure-rate orderings, and the
// Silent-failure voting contrast.  Campaigns here run with a reduced cap to
// stay fast; the orderings they assert are cap-insensitive.
#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace ballista {
namespace {

using core::ApiKind;
using core::Campaign;
using core::CampaignOptions;
using core::CampaignResult;
using sim::OsVariant;
using testing::shared_world;

CampaignOptions fast_options() {
  CampaignOptions opt;
  opt.cap = 150;
  return opt;
}

const CampaignResult& campaign_for(OsVariant v) {
  static std::map<OsVariant, CampaignResult> cache = [] {
    std::map<OsVariant, CampaignResult> out;
    for (OsVariant variant : sim::kAllVariants)
      out.emplace(variant,
                  Campaign::run(variant, shared_world().registry,
                                fast_options()));
    return out;
  }();
  return cache.at(v);
}

TEST(WorldCatalog, CallCountsMatchThePaper) {
  const auto& reg = shared_world().registry;
  // Counts only MuTs in the paper's twelve groups: growth groups (sync)
  // share ApiKind::kWin32Sys but sit outside the default campaign.
  const auto paper_count = [&](OsVariant v, ApiKind api) {
    std::size_t n = 0;
    for (const auto& m : reg.muts())
      if (m.supported_on(v) && m.api == api &&
          core::group_descriptor(m.group).in_default_campaign)
        ++n;
    return n;
  };
  // 237 Win32 MuTs = 143 system calls + 94 C functions (§1).
  EXPECT_EQ(paper_count(OsVariant::kWinNT4, ApiKind::kWin32Sys), 143u);
  EXPECT_EQ(paper_count(OsVariant::kWinNT4, ApiKind::kCLib), 94u);
  EXPECT_EQ(paper_count(OsVariant::kWin2000, ApiKind::kWin32Sys), 143u);
  EXPECT_EQ(paper_count(OsVariant::kWin98, ApiKind::kWin32Sys), 143u);
  EXPECT_EQ(paper_count(OsVariant::kWin98SE, ApiKind::kWin32Sys), 143u);
  // "10 Win32 system calls were not supported by Windows 95" (§4).
  EXPECT_EQ(paper_count(OsVariant::kWin95, ApiKind::kWin32Sys), 133u);
  EXPECT_EQ(paper_count(OsVariant::kWin95, ApiKind::kCLib), 94u);
  // "only 71 Win32 system calls and 82 C library functions were tested on
  // Windows CE" (§4) — 108 C implementations counting ASCII+UNICODE.
  EXPECT_EQ(paper_count(OsVariant::kWinCE, ApiKind::kWin32Sys), 71u);
  EXPECT_EQ(paper_count(OsVariant::kWinCE, ApiKind::kCLib), 108u);
  // 91 POSIX system calls + the shared C library on Linux.
  EXPECT_EQ(paper_count(OsVariant::kLinux, ApiKind::kPosixSys), 91u);
  EXPECT_EQ(paper_count(OsVariant::kLinux, ApiKind::kCLib), 94u);
  // Full registry = paper groups + the growth groups: sync (19 MuTs, all on
  // NT4) and sockets (16 Winsock + 12 BSD; per-variant subsets are pinned in
  // sync_group_test.cc / socket_group_test.cc).
  EXPECT_EQ(reg.count_group(core::FuncGroup::kWin32Sync), 19u);
  EXPECT_EQ(reg.count_group(core::FuncGroup::kSockets), 28u);
  EXPECT_EQ(reg.count(OsVariant::kWinNT4, ApiKind::kWin32Sys), 162u + 16u);
}

TEST(WorldCatalog, TwentySixUnicodeTwins) {
  const auto& reg = shared_world().registry;
  int twins = 0, twinned = 0;
  for (const auto& m : reg.muts()) {
    if (!m.twin_of.empty()) ++twins;
    if (m.has_unicode_twin) ++twinned;
  }
  EXPECT_EQ(twins, 26);  // "There were 26 C functions that had both..." (§4)
  EXPECT_EQ(twinned, 26);
}

TEST(WorldCatalog, IoPrimitivesMatchSection33Lists) {
  const auto& reg = shared_world().registry;
  const std::set<std::string> posix_expected = {
      "close", "dup",  "dup2", "fcntl", "fdatasync",
      "fsync", "lseek", "pipe", "read",  "write"};
  const std::set<std::string> win32_expected = {
      "AttachThreadInput", "CloseHandle",   "DuplicateHandle",
      "FlushFileBuffers",  "GetStdHandle",  "LockFile",
      "LockFileEx",        "ReadFile",      "ReadFileEx",
      "SetFilePointer",    "SetStdHandle",  "UnlockFile",
      "UnlockFileEx",      "WriteFile",     "WriteFileEx"};
  std::set<std::string> posix_actual, win32_actual;
  for (const auto& m : reg.muts()) {
    if (m.group != core::FuncGroup::kIoPrimitives) continue;
    (m.api == ApiKind::kPosixSys ? posix_actual : win32_actual)
        .insert(m.name);
  }
  EXPECT_EQ(posix_actual, posix_expected);
  EXPECT_EQ(win32_actual, win32_expected);
}

TEST(WorldCatalog, EveryMutIsWellFormed) {
  const auto& reg = shared_world().registry;
  // Names are unique per (group, api): growth groups may re-register an API
  // name from a paper group (sync's CreateEvent vs process primitives'),
  // which `repro --mut group:Name` disambiguates, and the sockets group
  // registers a Winsock and a BSD MuT under the same name (socket, bind...),
  // disambiguated by the target variant (Registry::find's variant overload).
  std::set<std::tuple<core::FuncGroup, core::ApiKind, std::string>> names;
  for (const auto& m : reg.muts()) {
    EXPECT_TRUE(names.insert({m.group, m.api, m.name}).second)
        << "duplicate MuT " << m.name;
    EXPECT_NE(m.variant_mask, 0) << m.name;
    EXPECT_TRUE(static_cast<bool>(m.impl)) << m.name;
    for (const auto* p : m.params) EXPECT_NE(p, nullptr) << m.name;
    // Hazard entries only make sense where the MuT exists.
    for (const auto& [v, style] : m.hazards)
      EXPECT_TRUE(m.supported_on(v)) << m.name;
  }
}

TEST(PaperShape, NoCatastrophicOnNt2000Linux) {
  for (OsVariant v :
       {OsVariant::kWinNT4, OsVariant::kWin2000, OsVariant::kLinux}) {
    const auto& r = campaign_for(v);
    EXPECT_TRUE(core::catastrophic_list(r).empty()) << sim::variant_name(v);
    EXPECT_EQ(r.reboots, 0) << sim::variant_name(v);
  }
}

std::set<std::string> catastrophic_names(OsVariant v) {
  std::set<std::string> out;
  for (const auto& e : core::catastrophic_list(campaign_for(v)))
    (void)out.insert(e.name);
  return out;
}

TEST(PaperShape, Table3Windows95Exactly) {
  // §4: five Win98 crashes minus MsgWaitForMultipleObjectsEx and strncpy,
  // plus FileTimeToSystemTime, HeapCreate, ReadProcessMemory.
  EXPECT_EQ(catastrophic_names(OsVariant::kWin95),
            (std::set<std::string>{
                "DuplicateHandle", "FileTimeToSystemTime",
                "GetFileInformationByHandle", "GetThreadContext",
                "HeapCreate", "MsgWaitForMultipleObjects",
                "ReadProcessMemory"}));
}

TEST(PaperShape, Table3Windows98Exactly) {
  EXPECT_EQ(catastrophic_names(OsVariant::kWin98),
            (std::set<std::string>{
                "DuplicateHandle", "GetFileInformationByHandle",
                "GetThreadContext", "MsgWaitForMultipleObjects",
                "MsgWaitForMultipleObjectsEx", "fwrite", "strncpy"}));
}

TEST(PaperShape, Table3Windows98SeExactly) {
  // "the same five Win32 API system calls as Windows 98, plus another in the
  // CreateThread() call, but eliminated ... fwrite()" (§4).
  EXPECT_EQ(catastrophic_names(OsVariant::kWin98SE),
            (std::set<std::string>{
                "CreateThread", "DuplicateHandle",
                "GetFileInformationByHandle", "GetThreadContext",
                "MsgWaitForMultipleObjects", "MsgWaitForMultipleObjectsEx",
                "strncpy"}));
}

TEST(PaperShape, Table3WindowsCeSystemCalls) {
  const auto names = catastrophic_names(OsVariant::kWinCE);
  for (const char* expected :
       {"CreateThread", "GetThreadContext", "InterlockedDecrement",
        "InterlockedExchange", "InterlockedIncrement",
        "MsgWaitForMultipleObjects", "MsgWaitForMultipleObjectsEx",
        "ReadProcessMemory", "SetThreadContext", "VirtualAlloc"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(PaperShape, WindowsCeEighteenCLibraryCatastrophics) {
  const auto& r = campaign_for(OsVariant::kWinCE);
  int clib_crashes = 0;
  for (const auto& e : core::catastrophic_list(r))
    if (core::is_clib_group(e.group)) ++clib_crashes;
  // 17 stdio functions from one bad FILE* plus the UNICODE strncpy (§5).
  EXPECT_EQ(clib_crashes, 18);
  const auto s = core::summarize(r);
  EXPECT_EQ(s.clib_catastrophic, 18);
  EXPECT_EQ(s.sys_catastrophic, 10);
}

TEST(PaperShape, StarredEntriesAreInterferenceStyle) {
  const auto& r98 = campaign_for(OsVariant::kWin98);
  std::map<std::string, bool> starred;
  for (const auto& e : core::catastrophic_list(r98))
    starred[e.name] = e.starred;
  EXPECT_TRUE(starred.at("DuplicateHandle"));
  EXPECT_TRUE(starred.at("MsgWaitForMultipleObjectsEx"));
  EXPECT_TRUE(starred.at("fwrite"));
  EXPECT_TRUE(starred.at("strncpy"));
  EXPECT_FALSE(starred.at("GetThreadContext"));
  EXPECT_FALSE(starred.at("MsgWaitForMultipleObjects"));
  EXPECT_FALSE(starred.at("GetFileInformationByHandle"));
}

TEST(PaperShape, AbortRateOrderings) {
  const auto linux_summary = core::summarize(campaign_for(OsVariant::kLinux));
  const auto nt = core::summarize(campaign_for(OsVariant::kWinNT4));
  const auto w95 = core::summarize(campaign_for(OsVariant::kWin95));
  const auto w98 = core::summarize(campaign_for(OsVariant::kWin98));
  // "Linux seems more robust on system calls" (§5).
  EXPECT_LT(linux_summary.sys_abort, w95.sys_abort);
  EXPECT_LT(linux_summary.sys_abort, nt.sys_abort);
  // NT raises exceptions where 9x stubs swallow: higher syscall Abort.
  EXPECT_GT(nt.sys_abort, w98.sys_abort);
  // "...but more susceptible to Abort failures on C library calls" (§5).
  EXPECT_GT(linux_summary.clib_abort, nt.clib_abort);
  EXPECT_GT(linux_summary.clib_abort, w95.clib_abort);
  // Restarts are rare everywhere (§4).
  for (OsVariant v : sim::kAllVariants) {
    EXPECT_LT(core::summarize(campaign_for(v)).overall_restart, 0.02)
        << sim::variant_name(v);
  }
}

TEST(PaperShape, CCharGroupContrast) {
  // "Linux has more than a 30% Abort failure rate for C character
  // operations, whereas all the Windows systems have zero percent" (§4).
  const auto linux_rate =
      core::group_rate(campaign_for(OsVariant::kLinux),
                       core::FuncGroup::kCChar);
  EXPECT_GT(linux_rate.abort_rate, 0.15);
  for (OsVariant v : {OsVariant::kWin95, OsVariant::kWinNT4,
                      OsVariant::kWinCE}) {
    const auto wr = core::group_rate(campaign_for(v), core::FuncGroup::kCChar);
    EXPECT_DOUBLE_EQ(wr.abort_rate, 0.0) << sim::variant_name(v);
  }
}

TEST(PaperShape, LinuxHigherOnClibIoGroups) {
  for (core::FuncGroup g : {core::FuncGroup::kCFileIo,
                            core::FuncGroup::kCStreamIo,
                            core::FuncGroup::kCMemory}) {
    const double linux_rate =
        core::group_rate(campaign_for(OsVariant::kLinux), g).failure_rate;
    const double nt_rate =
        core::group_rate(campaign_for(OsVariant::kWinNT4), g).failure_rate;
    EXPECT_GT(linux_rate, nt_rate) << core::group_name(g);
  }
}

TEST(PaperShape, CeStreamGroupsHaveNoData) {
  // §4: "too many functions with Catastrophic failures to report accurate
  // group failure rates" for CE C file I/O and stream I/O; no C time at all.
  const auto& ce = campaign_for(OsVariant::kWinCE);
  EXPECT_TRUE(core::group_rate(ce, core::FuncGroup::kCFileIo).no_data);
  EXPECT_TRUE(core::group_rate(ce, core::FuncGroup::kCStreamIo).no_data);
  EXPECT_TRUE(core::group_rate(ce, core::FuncGroup::kCTime).no_data);
  EXPECT_EQ(core::group_rate(ce, core::FuncGroup::kCTime).functions, 0);
}

TEST(PaperShape, VotingFindsSilent9xNotNt) {
  std::vector<CampaignResult> desktops;
  for (OsVariant v : sim::kDesktopWindows)
    desktops.push_back(
        Campaign::run(v, shared_world().registry, fast_options()));
  const auto voted = core::vote_silent(desktops);
  // Figure 2: 95/98/98SE silent rates well above NT/2000.
  const double w95 = voted.overall_silent[0];
  const double nt = voted.overall_silent[3];
  const double w2k = voted.overall_silent[4];
  EXPECT_GT(w95, 0.05);
  EXPECT_LT(nt, 0.02);
  EXPECT_LT(w2k, 0.02);
  EXPECT_GT(w95, nt * 3);
}

TEST(PaperShape, IdenticalSeedsGiveIdenticalTuplesAcrossVariants) {
  // §3.1: "the same pseudorandom sampling of test cases was performed in the
  // same order for each system call or C function tested across the
  // different Windows variants."  Case codes for a pure-pass MuT must align.
  const auto& a = campaign_for(OsVariant::kWin95);
  const auto& b = campaign_for(OsVariant::kWin98);
  const auto* ma = a.find("GetTickCount");
  const auto* mb = b.find("GetTickCount");
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  EXPECT_EQ(ma->planned, mb->planned);
}

TEST(PaperShape, CampaignsAreDeterministic) {
  const auto r1 =
      Campaign::run(OsVariant::kWin98, shared_world().registry,
                    fast_options());
  const auto r2 =
      Campaign::run(OsVariant::kWin98, shared_world().registry,
                    fast_options());
  ASSERT_EQ(r1.stats.size(), r2.stats.size());
  for (std::size_t i = 0; i < r1.stats.size(); ++i) {
    EXPECT_EQ(r1.stats[i].aborts, r2.stats[i].aborts)
        << r1.stats[i].mut->name;
    EXPECT_EQ(r1.stats[i].case_codes, r2.stats[i].case_codes)
        << r1.stats[i].mut->name;
    EXPECT_EQ(r1.stats[i].catastrophic, r2.stats[i].catastrophic)
        << r1.stats[i].mut->name;
  }
  EXPECT_EQ(r1.reboots, r2.reboots);
}

}  // namespace
}  // namespace ballista
