// Tests for the per-test-value failure-attribution analysis and the CSV
// exports.
#include <gtest/gtest.h>

#include <sstream>

#include "core/analysis.h"
#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;
using testing::shared_world;

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() {
    auto& t = lib.make("mixed");
    t.add("good_a", false, [](ValueCtx&) { return RawArg{1}; });
    t.add("good_b", false, [](ValueCtx&) { return RawArg{2}; });
    t.add("killer", true, [](ValueCtx&) { return RawArg{0}; });

    MuT m;
    m.name = "victim";
    m.api = ApiKind::kCLib;
    m.group = FuncGroup::kCString;
    m.params = {&lib.get("mixed"), &lib.get("mixed")};
    m.variant_mask = kMaskEverything;
    m.impl = [](CallContext& ctx) -> CallOutcome {
      // Fails exactly when either argument is the "killer" value (0).
      std::uint8_t b = 0;
      if (ctx.arg(0) == 0 || ctx.arg(1) == 0)
        if (auto f = ctx.proc().mem().read_u8(0, &b, sim::Access::kUser))
          return ctx.raise(*f);
      return ok(0);
    };
    reg.add(std::move(m));
  }
  TypeLibrary lib;
  Registry reg;
};

TEST_F(AnalysisTest, AttributesFailuresToTheGuiltyValue) {
  CampaignOptions opt;
  const auto result = Campaign::run(OsVariant::kLinux, reg, opt);
  const auto a = analyze_values(result, opt.cap, opt.seed);

  // 9 combinations; 5 contain the killer -> overall 5/9.
  EXPECT_NEAR(a.overall_failure_rate, 5.0 / 9.0, 1e-9);
  ASSERT_FALSE(a.stats.empty());
  // The worst value is the killer at 100%.
  EXPECT_EQ(a.stats.front().value_name, "killer");
  EXPECT_DOUBLE_EQ(a.stats.front().failure_rate(), 1.0);
  // Benign values fail only when paired with the killer: 2/6 each... the
  // killer appears in 1 of 3 partner slots -> rate strictly below killer's.
  for (const auto& s : a.stats) {
    if (s.value_name != "killer") {
      EXPECT_LT(s.failure_rate(), 0.5) << s.value_name;
    }
  }
}

TEST_F(AnalysisTest, SuspectsFlagOnlyOutliers) {
  CampaignOptions opt;
  const auto result = Campaign::run(OsVariant::kLinux, reg, opt);
  const auto a = analyze_values(result, opt.cap, opt.seed);
  const auto sus = a.suspects(/*factor=*/1.5, /*min_cases=*/1);
  ASSERT_EQ(sus.size(), 1u);
  EXPECT_EQ(sus[0]->value_name, "killer");
}

TEST_F(AnalysisTest, CaseCountsArePerValueOccurrences) {
  CampaignOptions opt;
  const auto result = Campaign::run(OsVariant::kLinux, reg, opt);
  const auto a = analyze_values(result, opt.cap, opt.seed);
  std::uint64_t total = 0;
  for (const auto& s : a.stats) total += s.cases;
  // 9 cases x 2 parameters = 18 value occurrences.
  EXPECT_EQ(total, 18u);
}

TEST_F(AnalysisTest, PrinterAndCsvProduceOutput) {
  CampaignOptions opt;
  const auto result = Campaign::run(OsVariant::kLinux, reg, opt);
  const auto a = analyze_values(result, opt.cap, opt.seed);
  std::ostringstream text, vcsv, mcsv;
  print_value_analysis(text, a);
  write_value_csv(vcsv, result.variant, a);
  write_mut_csv(mcsv, result);
  EXPECT_NE(text.str().find("killer"), std::string::npos);
  EXPECT_NE(vcsv.str().find("mixed,killer,1,"), std::string::npos);
  const std::string mut_rows = mcsv.str();
  EXPECT_NE(mut_rows.find("victim"), std::string::npos);
  // CSV header + one row per MuT.
  EXPECT_EQ(std::count(mut_rows.begin(), mut_rows.end(), '\n'), 2);
}

TEST(AnalysisWorld, CeSuspectsIncludeTheBadFilePointer) {
  // The paper's §5 attribution ("traceable to ... an invalid C file
  // pointer") falls out of the analysis automatically.
  core::CampaignOptions opt;
  opt.cap = 120;
  const auto result = Campaign::run(OsVariant::kWinCE,
                                    shared_world().registry, opt);
  const auto a = analyze_values(result, opt.cap, opt.seed);
  bool found_bad_file = false;
  for (const auto* s : a.suspects(2.0, 10)) {
    if (s->type_name == "cfile" && s->exceptional) found_bad_file = true;
  }
  EXPECT_TRUE(found_bad_file);
}

TEST(AnalysisWorld, ValidValuesAreNotSuspects) {
  core::CampaignOptions opt;
  opt.cap = 120;
  const auto result = Campaign::run(OsVariant::kLinux,
                                    shared_world().registry, opt);
  const auto a = analyze_values(result, opt.cap, opt.seed);
  for (const auto* s : a.suspects()) {
    EXPECT_NE(s->value_name, "str_hello");
    EXPECT_NE(s->value_name, "buf_64");
    EXPECT_NE(s->value_name, "fd_fixture_rw");
  }
}

}  // namespace
}  // namespace ballista::core
