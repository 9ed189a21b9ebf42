// In-memory hierarchical filesystem shared by the Win32, POSIX and C-library
// personalities.  Paths may use '/' or '\\' separators and an optional "C:"
// drive prefix, so the same backing store serves both APIs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault.h"

namespace ballista::sim {

class MutationHub;
enum class MutationKind : std::uint8_t;

struct FileTimes {
  std::uint64_t creation = 0;
  std::uint64_t last_access = 0;
  std::uint64_t last_write = 0;
};

/// One file or directory.  Its mutable state is reachable for writing only
/// through the mutators below, and every one of them advances the owning
/// FileSystem's edit epoch, so restore_fixture can tell that nothing changed
/// without walking the tree.  Read paths (resolution, stat, listings) use
/// the const accessors and leave the epoch alone.
class FsNode {
 public:
  /// `epoch` is the owning FileSystem's edit counter; a node outside any
  /// filesystem (a CRT stream's backing node, a test's) has none.  The
  /// counter is shared, so a node that outlives its filesystem (held by an
  /// open FileObject) still counts its edits into live memory.
  FsNode(std::string name, bool is_dir,
         std::shared_ptr<std::uint64_t> epoch = nullptr)
      : name_(std::move(name)), dir_(is_dir), epoch_(std::move(epoch)) {}

  const std::string& name() const noexcept { return name_; }
  bool is_dir() const noexcept { return dir_; }

  const std::vector<std::uint8_t>& data() const noexcept { return data_; }
  /// The file's bytes, for a write, truncation or copy about to happen.
  std::vector<std::uint8_t>& edit_data() noexcept {
    bump();
    return data_;
  }

  const std::map<std::string, std::shared_ptr<FsNode>>& children()
      const noexcept {
    return children_;
  }
  /// Links `child` as `name`; false, with nothing changed, when the name is
  /// taken.
  bool add_child(const std::string& name, std::shared_ptr<FsNode> child) {
    bump();
    return children_.emplace(name, std::move(child)).second;
  }
  void remove_child(const std::string& name) {
    bump();
    children_.erase(name);
  }
  void clear_children() noexcept {
    bump();
    children_.clear();
  }

  bool read_only() const noexcept { return read_only_; }
  void set_read_only(bool v) noexcept {
    bump();
    read_only_ = v;
  }
  bool hidden() const noexcept { return hidden_; }
  void set_hidden(bool v) noexcept {
    bump();
    hidden_ = v;
  }
  const FileTimes& times() const noexcept { return times_; }
  void set_times(const FileTimes& t) noexcept {
    bump();
    times_ = t;
  }
  /// Link count for POSIX semantics; unlink with open FileObjects keeps data
  /// alive through the shared_ptr, as on a real Unix.
  int nlink() const noexcept { return nlink_; }
  void set_nlink(int n) noexcept {
    bump();
    nlink_ = n;
  }

 private:
  void bump() noexcept {
    if (epoch_ != nullptr) ++*epoch_;
  }

  std::string name_;
  bool dir_;
  bool read_only_ = false;
  bool hidden_ = false;
  FileTimes times_;
  int nlink_ = 1;
  std::vector<std::uint8_t> data_;
  std::map<std::string, std::shared_ptr<FsNode>> children_;
  std::shared_ptr<std::uint64_t> epoch_;
};

/// Normalized absolute path: component list from the root.
struct ParsedPath {
  std::vector<std::string> components;
  bool valid = true;
};

class FileSystem {
 public:
  FileSystem();

  /// Splits, normalizes ('.' / '..'), strips drive prefixes.  `cwd` supplies
  /// the base for relative paths.
  ParsedPath parse(std::string_view path, const ParsedPath& cwd) const;
  static ParsedPath root_path() { return ParsedPath{}; }
  static std::string to_string(const ParsedPath& p);

  std::shared_ptr<FsNode> resolve(const ParsedPath& p) const;
  /// Parent directory of `p` (nullptr if missing) plus final component name.
  std::shared_ptr<FsNode> resolve_parent(const ParsedPath& p,
                                         std::string* leaf) const;

  // Every edit below announces its persistence point before it applies and
  // reports kDown, having changed nothing, when an armed cut fires there.
  // A refused edit (null node, false) announces nothing.

  /// Creates a regular file; fails if the parent is missing or a directory /
  /// read-only file already exists there (unless truncate_existing).
  Survived<std::shared_ptr<FsNode>> create_file(const ParsedPath& p,
                                                bool fail_if_exists,
                                                bool truncate_existing);
  Survived<std::shared_ptr<FsNode>> create_dir(const ParsedPath& p);
  Survived<bool> remove_file(const ParsedPath& p);
  /// Fails unless the directory exists and is empty.
  Survived<bool> remove_dir(const ParsedPath& p);
  Survived<bool> rename(const ParsedPath& from, const ParsedPath& to);

  // --- metadata setters (the kFsMeta persistence points) ---------------------
  //
  // API layers must edit node metadata through these, never through the
  // node's own setters, so every metadata change announces a mutation point.
  // Each is announce-then-apply: an armed cut leaves the field untouched.

  Verdict set_read_only(FsNode& node, bool value);
  Verdict set_hidden(FsNode& node, bool value);
  Verdict set_last_write(FsNode& node, std::uint64_t t);

  std::shared_ptr<FsNode> root() const noexcept { return root_; }

  /// Wires the filesystem into the owning machine's mutation hub so node
  /// creation/removal/rename and metadata edits announce persistence points.
  /// Standalone filesystems (tests) leave it unset and mutate silently.
  void set_mutation_hub(MutationHub* hub) noexcept { hub_ = hub; }

  // --- checkpoint / restore (the machine-state lifecycle's disk leg) ---------
  //
  // The constructor builds the canonical fixture tree (a scratch directory, a
  // populated data file, a read-only file) and checkpoints it.  restore_fixture
  // returns the disk to that checkpoint in cost proportional to what was
  // actually dirtied.  Every node edit advances the filesystem's epoch, and
  // while the epoch stands where it stood at the last clean verify or
  // rebuild, the tree is known to match and a restore compares two
  // counters.  Otherwise a verify pass walks the live tree against the
  // checkpoint image (a handful of nodes: a few field compares and two short
  // memcmps) and only a failed verify pays for a rebuild.
  //
  // Dirty tracking is safe here because FsNode keeps its state private: the
  // API layers cannot reach a field except through a mutator, and every
  // mutator bumps the epoch, so a forgotten bump is a compile error rather
  // than a silent miss, as it would be with public fields.  The image stays
  // the oracle: fixture_clean() compares against it, and the reset_paths
  // tests assert after every catalog case that an unmoved epoch implies it.

  /// Deep-copies the current tree as the image restore_fixture returns to.
  /// Called once by the constructor; re-checkpointing is an advanced
  /// operation (it changes what "clean" means for every later restore).
  void checkpoint();

  /// Returns the tree to the checkpoint image: nothing to do while the epoch
  /// has not moved, else verifies first and rebuilds only on mismatch.
  /// Returns true when a rebuild was needed.
  bool restore_fixture();

  /// Unconditionally rebuilds from the checkpoint image, skipping the verify
  /// pass (the pre-lifecycle cost model; kept for benchmarking and for the
  /// restore-correctness property tests).
  void rebuild_fixture();

  /// True when the live tree matches the checkpoint image exactly.
  bool fixture_clean() const;

  /// Node edits so far (see FsNode).
  std::uint64_t epoch() const noexcept { return *epoch_; }
  /// True while no node has been edited since the tree last matched the
  /// image: restore_fixture's fast path.
  bool epoch_clean() const noexcept { return *epoch_ == clean_epoch_; }

  /// Lifecycle telemetry: how many restore_fixture calls took the cheap
  /// verified path vs. paid for a rebuild (rebuild_fixture counts as a
  /// rebuild).  The double-rebuild regression test pins these.
  std::uint64_t fixture_rebuilds() const noexcept { return rebuilds_; }
  std::uint64_t fixture_fast_restores() const noexcept {
    return fast_restores_;
  }
  /// restore_fixture calls that found the epoch moved and walked the tree
  /// (to verify it, then to rebuild it if it differed).
  std::uint64_t fixture_walks() const noexcept { return walks_; }

  static constexpr std::string_view kScratchDir = "tmp";
  static constexpr std::string_view kFixtureFile = "tmp/fixture.dat";
  static constexpr std::string_view kReadOnlyFile = "tmp/readonly.dat";

 private:
  void build_fixture();
  Verdict announce(MutationKind kind, std::string_view leaf);

  MutationHub* hub_ = nullptr;
  std::shared_ptr<std::uint64_t> epoch_ = std::make_shared<std::uint64_t>(0);
  /// The epoch at the last clean verify, rebuild or checkpoint.
  std::uint64_t clean_epoch_ = 0;
  std::shared_ptr<FsNode> root_;
  /// Checkpoint image: an independent deep copy of the canonical tree.
  std::shared_ptr<FsNode> image_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t fast_restores_ = 0;
  std::uint64_t walks_ = 0;
};

}  // namespace ballista::sim
