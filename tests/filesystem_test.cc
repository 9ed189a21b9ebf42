// Unit tests for the in-memory filesystem shared by all API personalities.
#include <gtest/gtest.h>

#include "sim/filesystem.h"

namespace ballista::sim {
namespace {

class FsTest : public ::testing::Test {
 protected:
  ParsedPath p(std::string_view s) { return fs.parse(s, cwd); }
  FileSystem fs;
  ParsedPath cwd = FileSystem::root_path();
};

TEST_F(FsTest, FixtureExistsAtBoot) {
  EXPECT_NE(fs.resolve(p("/tmp/fixture.dat")), nullptr);
  auto ro = fs.resolve(p("/tmp/readonly.dat"));
  ASSERT_NE(ro, nullptr);
  EXPECT_TRUE(ro->read_only());
  EXPECT_FALSE(fs.resolve(p("/tmp/fixture.dat"))->data().empty());
}

TEST_F(FsTest, ParseHandlesBothSeparatorsAndDrives) {
  EXPECT_EQ(FileSystem::to_string(p("C:\\tmp\\fixture.dat")),
            "/tmp/fixture.dat");
  EXPECT_EQ(FileSystem::to_string(p("/tmp//fixture.dat")),
            "/tmp/fixture.dat");
  EXPECT_EQ(FileSystem::to_string(p("\\tmp\\a\\..\\b")), "/tmp/b");
  EXPECT_EQ(FileSystem::to_string(p("/")), "/");
}

TEST_F(FsTest, RelativePathsUseCwd) {
  cwd = p("/tmp");
  EXPECT_NE(fs.resolve(p("fixture.dat")), nullptr);
  EXPECT_EQ(FileSystem::to_string(p("./sub/../fixture.dat")),
            "/tmp/fixture.dat");
}

TEST_F(FsTest, DotDotAboveRootClamps) {
  EXPECT_EQ(FileSystem::to_string(p("/../../tmp")), "/tmp");
}

TEST_F(FsTest, EmptyPathIsInvalid) {
  EXPECT_FALSE(p("").valid);
  EXPECT_EQ(fs.resolve(p("")), nullptr);
}

TEST_F(FsTest, CreateFileVariants) {
  EXPECT_NE(fs.create_file(p("/tmp/new.dat"), true, false).value, nullptr);
  // fail_if_exists
  EXPECT_EQ(fs.create_file(p("/tmp/new.dat"), true, false).value, nullptr);
  // reuse without truncation
  auto n = fs.create_file(p("/tmp/new.dat"), false, false).value;
  ASSERT_NE(n, nullptr);
  n->edit_data().assign({1, 2, 3});
  auto again = fs.create_file(p("/tmp/new.dat"), false, false).value;
  EXPECT_EQ(again->data().size(), 3u);
  // truncate_existing
  auto trunc = fs.create_file(p("/tmp/new.dat"), false, true).value;
  EXPECT_TRUE(trunc->data().empty());
}

TEST_F(FsTest, CreateFileInMissingDirFails) {
  EXPECT_EQ(fs.create_file(p("/nowhere/file"), false, false).value, nullptr);
}

TEST_F(FsTest, ReadOnlyFilesResistModification) {
  EXPECT_EQ(fs.create_file(p("/tmp/readonly.dat"), false, true).value, nullptr);
  EXPECT_FALSE(fs.remove_file(p("/tmp/readonly.dat")).value);
}

TEST_F(FsTest, DirectoryLifecycle) {
  EXPECT_NE(fs.create_dir(p("/tmp/sub")).value, nullptr);
  EXPECT_EQ(fs.create_dir(p("/tmp/sub")).value, nullptr);  // exists
  EXPECT_NE(fs.create_file(p("/tmp/sub/f"), true, false).value, nullptr);
  EXPECT_FALSE(fs.remove_dir(p("/tmp/sub")).value);  // not empty
  EXPECT_TRUE(fs.remove_file(p("/tmp/sub/f")).value);
  EXPECT_TRUE(fs.remove_dir(p("/tmp/sub")).value);
  EXPECT_EQ(fs.resolve(p("/tmp/sub")), nullptr);
}

TEST_F(FsTest, RemoveDirRejectsFiles) {
  EXPECT_FALSE(fs.remove_dir(p("/tmp/fixture.dat")).value);
  EXPECT_FALSE(fs.remove_file(p("/tmp")).value);
}

TEST_F(FsTest, RenameMovesNodes) {
  EXPECT_TRUE(fs.rename(p("/tmp/fixture.dat"), p("/tmp/moved.dat")).value);
  EXPECT_EQ(fs.resolve(p("/tmp/fixture.dat")), nullptr);
  EXPECT_NE(fs.resolve(p("/tmp/moved.dat")), nullptr);
  // destination exists -> refused
  EXPECT_FALSE(fs.rename(p("/tmp/moved.dat"), p("/tmp/readonly.dat")).value);
  // missing source -> refused
  EXPECT_FALSE(fs.rename(p("/tmp/ghost"), p("/tmp/x")).value);
}

TEST_F(FsTest, RenameRejectsMovingADirectoryIntoItsOwnSubtree) {
  // rename("/a", "/a/b") would make the directory its own child: a shared_ptr
  // cycle unreachable from the root (caught by the asan preset's leak check).
  ASSERT_NE(fs.create_dir(p("/tmp/a")).value, nullptr);
  EXPECT_FALSE(fs.rename(p("/tmp/a"), p("/tmp/a/b")).value);
  EXPECT_FALSE(fs.rename(p("/tmp"), p("/tmp/a/deep")).value);
  EXPECT_FALSE(fs.rename(p("/tmp/a"), p("/tmp/a")).value);  // onto itself
  // the source tree is untouched by a refused rename
  EXPECT_NE(fs.resolve(p("/tmp/a")), nullptr);
  // a sibling move still works
  EXPECT_TRUE(fs.rename(p("/tmp/a"), p("/tmp/b")).value);
}

TEST_F(FsTest, RestoreFixtureRebuildsCanonicalTree) {
  (void)fs.create_file(p("/tmp/junk"), true, false);
  fs.resolve(p("/tmp/fixture.dat"))->edit_data().clear();
  EXPECT_TRUE(fs.restore_fixture());  // dirtied -> full rebuild
  EXPECT_EQ(fs.resolve(p("/tmp/junk")), nullptr);
  EXPECT_FALSE(fs.resolve(p("/tmp/fixture.dat"))->data().empty());
}

TEST_F(FsTest, RestoreFixtureIsFreeWhenClean) {
  // A clean tree verifies against the checkpoint image instead of rebuilding:
  // node identity survives, so open handles keep referencing live nodes.
  auto before = fs.resolve(p("/tmp/fixture.dat"));
  const auto rebuilds = fs.fixture_rebuilds();
  EXPECT_FALSE(fs.restore_fixture());
  EXPECT_EQ(fs.fixture_rebuilds(), rebuilds);
  EXPECT_GE(fs.fixture_fast_restores(), 1u);
  EXPECT_EQ(fs.resolve(p("/tmp/fixture.dat")), before);
}

TEST_F(FsTest, RestoreFixtureCatchesMetadataOnlyDamage) {
  // Dirty-bit schemes miss plain-field writes; the verify pass must not.
  fs.resolve(p("/tmp/readonly.dat"))->set_read_only(false);
  EXPECT_TRUE(fs.restore_fixture());
  EXPECT_TRUE(fs.resolve(p("/tmp/readonly.dat"))->read_only());
}

TEST_F(FsTest, ResetFixtureRestoresRootMetadata) {
  // chmod("/", 0555)-style damage must not outlive the fixture reset: the
  // root node object persists across resets, so a leaked read_only flag
  // would make later test cases (access, create) depend on what ran before
  // them — and campaign results depend on shard scheduling.
  fs.root()->set_read_only(true);
  fs.root()->set_hidden(true);
  EXPECT_TRUE(fs.restore_fixture());
  EXPECT_FALSE(fs.root()->read_only());
  EXPECT_FALSE(fs.root()->hidden());
}

TEST_F(FsTest, UnlinkedNodeSurvivesThroughSharedPtr) {
  auto node = fs.resolve(p("/tmp/fixture.dat"));
  ASSERT_TRUE(fs.remove_file(p("/tmp/fixture.dat")).value);
  EXPECT_EQ(node->nlink(), 0);
  node->edit_data().push_back('x');  // still usable via the open reference
}

}  // namespace
}  // namespace ballista::sim
