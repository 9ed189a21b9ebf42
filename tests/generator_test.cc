// Tests for tuple generation: exhaustive enumeration, the 5000-test cap,
// and the cross-variant determinism Figure 2's voting depends on.
#include <gtest/gtest.h>

#include <set>

#include "core/generator.h"
#include "core/typelib.h"

namespace ballista::core {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest() {
    register_base_types(lib);
    small.name = "small_fn";
    small.params = {&lib.get("int"), &lib.get("char_int")};
    wide.name = "wide_fn";
    wide.params = {&lib.get("buf"), &lib.get("cstr"), &lib.get("size"),
                   &lib.get("flags32"), &lib.get("timeout_ms")};
  }
  TypeLibrary lib;
  MuT small, wide;
};

TEST_F(GeneratorTest, ExhaustiveWhenUnderCap) {
  TupleGenerator gen(small);
  const std::size_t expect =
      lib.get("int").value_count() * lib.get("char_int").value_count();
  EXPECT_TRUE(gen.exhaustive());
  EXPECT_EQ(gen.count(), expect);
  EXPECT_EQ(gen.combination_count(), expect);
}

TEST_F(GeneratorTest, ExhaustiveCoversEveryCombinationOnce) {
  TupleGenerator gen(small);
  std::set<std::pair<const TestValue*, const TestValue*>> seen;
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    const auto t = gen.tuple(i);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_TRUE(seen.emplace(t[0], t[1]).second) << "duplicate at " << i;
  }
  EXPECT_EQ(seen.size(), gen.count());
}

TEST_F(GeneratorTest, CappedWhenCombinationsExplode) {
  TupleGenerator gen(wide, 5000);
  EXPECT_FALSE(gen.exhaustive());
  EXPECT_EQ(gen.count(), 5000u);
  EXPECT_GT(gen.combination_count(), 5000u);
}

TEST_F(GeneratorTest, SamplingIsDeterministicAcrossInstances) {
  TupleGenerator a(wide, 5000), b(wide, 5000);
  for (std::uint64_t i : {0ull, 1ull, 17ull, 4999ull})
    EXPECT_EQ(a.tuple(i), b.tuple(i));
}

TEST_F(GeneratorTest, SamplingIsStatelessPerIndex) {
  TupleGenerator gen(wide, 5000);
  const auto t42 = gen.tuple(42);
  (void)gen.tuple(4000);
  (void)gen.tuple(3);
  EXPECT_EQ(gen.tuple(42), t42);
}

TEST_F(GeneratorTest, DifferentMutsSampleDifferently) {
  MuT other = wide;
  other.name = "other_fn";
  TupleGenerator a(wide, 5000), b(other, 5000);
  int differing = 0;
  for (std::uint64_t i = 0; i < 50; ++i)
    if (a.tuple(i) != b.tuple(i)) ++differing;
  EXPECT_GT(differing, 25);  // overwhelmingly different streams
}

TEST_F(GeneratorTest, SeedChangesTheStream) {
  TupleGenerator a(wide, 5000, 1), b(wide, 5000, 2);
  int differing = 0;
  for (std::uint64_t i = 0; i < 50; ++i)
    if (a.tuple(i) != b.tuple(i)) ++differing;
  EXPECT_GT(differing, 25);
}

TEST_F(GeneratorTest, SampledValuesComeFromTheRightPools) {
  TupleGenerator gen(wide, 200);
  const auto pool0 = lib.get("buf").values();
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    const auto t = gen.tuple(i);
    EXPECT_NE(std::find(pool0.begin(), pool0.end(), t[0]), pool0.end());
  }
}

TEST_F(GeneratorTest, SamplingHitsEveryPoolValueEventually) {
  TupleGenerator gen(wide, 5000);
  std::set<const TestValue*> seen;
  for (std::uint64_t i = 0; i < gen.count(); ++i)
    (void)seen.insert(gen.tuple(i)[0]);
  EXPECT_EQ(seen.size(), lib.get("buf").value_count());
}

TEST_F(GeneratorTest, ZeroParameterMutYieldsOneEmptyTuple) {
  MuT nullary;
  nullary.name = "nullary";
  TupleGenerator gen(nullary);
  EXPECT_EQ(gen.count(), 1u);
  EXPECT_TRUE(gen.tuple(0).empty());
}

// --- batched cursor API -----------------------------------------------------

TEST_F(GeneratorTest, CursorMatchesStatelessTupleOnExhaustiveStream) {
  TupleGenerator gen(small);
  ASSERT_TRUE(gen.exhaustive());
  TupleScratch scratch;
  auto cur = gen.begin(0, scratch);
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    const auto expect = gen.tuple(i);
    const auto got = cur.values();
    ASSERT_EQ(got.size(), expect.size()) << "case " << i;
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ(got[k], expect[k]) << "case " << i << " slot " << k;
    if (i + 1 < gen.count()) cur.advance();
  }
}

TEST_F(GeneratorTest, CursorMatchesStatelessTupleOnSampledStream) {
  TupleGenerator gen(wide, 5000);
  ASSERT_FALSE(gen.exhaustive());
  TupleScratch scratch;
  auto cur = gen.begin(0, scratch);
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    const auto expect = gen.tuple(i);
    const auto got = cur.values();
    ASSERT_EQ(got.size(), expect.size()) << "case " << i;
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ(got[k], expect[k]) << "case " << i << " slot " << k;
    if (i + 1 < gen.count()) cur.advance();
  }
}

TEST_F(GeneratorTest, CursorStartedMidStreamMatchesEveryOffset) {
  // Shards begin cursors at arbitrary range starts; every offset must join
  // the same stream tuple(i) describes, for both generation modes.
  TupleGenerator ex(small);
  TupleGenerator sam(wide, 300);
  for (const TupleGenerator* gen : {&ex, &sam}) {
    for (std::uint64_t first :
         {std::uint64_t{1}, gen->count() / 2, gen->count() - 1}) {
      TupleScratch scratch;
      auto cur = gen->begin(first, scratch);
      for (std::uint64_t i = first; i < gen->count(); ++i) {
        const auto expect = gen->tuple(i);
        const auto got = cur.values();
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t k = 0; k < expect.size(); ++k)
          EXPECT_EQ(got[k], expect[k]) << "first " << first << " case " << i;
        if (i + 1 < gen->count()) cur.advance();
      }
    }
  }
}

TEST_F(GeneratorTest, CursorReusesOneScratchAcrossGenerators) {
  // A worker reuses a single scratch for every MuT in a shard; switching
  // generators mid-scratch must not leak digits between streams.
  TupleGenerator a(small), b(wide, 100);
  TupleScratch scratch;
  auto ca = a.begin(0, scratch);
  ca.advance();
  auto cb = b.begin(0, scratch);  // clobbers a's scratch, as documented
  const auto expect = b.tuple(0);
  const auto got = cb.values();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) EXPECT_EQ(got[k], expect[k]);
}

TEST_F(GeneratorTest, CursorOnZeroParameterMut) {
  MuT nullary;
  nullary.name = "nullary";
  TupleGenerator gen(nullary);
  TupleScratch scratch;
  auto cur = gen.begin(0, scratch);
  EXPECT_TRUE(cur.values().empty());
}

TEST_F(GeneratorTest, InheritedPoolsAreVisible) {
  // "fmt" inherits "cstr": its pool must be strictly larger.
  MuT m;
  m.name = "fmt_fn";
  m.params = {&lib.get("fmt")};
  TupleGenerator gen(m);
  EXPECT_GT(gen.count(), lib.get("cstr").value_count());
}

}  // namespace
}  // namespace ballista::core
