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

class FsNode {
 public:
  FsNode(std::string name, bool is_dir) : name_(std::move(name)), dir_(is_dir) {}

  const std::string& name() const noexcept { return name_; }
  bool is_dir() const noexcept { return dir_; }

  std::vector<std::uint8_t>& data() noexcept { return data_; }
  const std::vector<std::uint8_t>& data() const noexcept { return data_; }

  std::map<std::string, std::shared_ptr<FsNode>>& children() noexcept {
    return children_;
  }
  const std::map<std::string, std::shared_ptr<FsNode>>& children()
      const noexcept {
    return children_;
  }

  bool read_only = false;
  bool hidden = false;
  FileTimes times;
  /// Link count for POSIX semantics; unlink with open FileObjects keeps data
  /// alive through the shared_ptr, as on a real Unix.
  int nlink = 1;

 private:
  std::string name_;
  bool dir_;
  std::vector<std::uint8_t> data_;
  std::map<std::string, std::shared_ptr<FsNode>> children_;
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
  // API layers must edit node metadata through these, never by poking the
  // public fields, so every metadata change announces a mutation point.
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
  // actually dirtied: a verify pass walks the live tree against the checkpoint
  // image (the canonical tree is a handful of nodes, so a clean verify is a
  // few field compares and two short memcmps) and only a failed verify pays
  // for a rebuild.  Per-node dirty bits were rejected: node metadata
  // (read_only/hidden/times) and file data are mutated through plain field
  // access all over the API layers, so a bit could be missed silently — the
  // checkpoint image is an oracle that cannot drift from the tree it captured.

  /// Deep-copies the current tree as the image restore_fixture returns to.
  /// Called once by the constructor; re-checkpointing is an advanced
  /// operation (it changes what "clean" means for every later restore).
  void checkpoint();

  /// Returns the tree to the checkpoint image: verifies first, rebuilds only
  /// on mismatch.  Returns true when a rebuild was needed.
  bool restore_fixture();

  /// Unconditionally rebuilds from the checkpoint image, skipping the verify
  /// pass (the pre-lifecycle cost model; kept for benchmarking and for the
  /// restore-correctness property tests).
  void rebuild_fixture();

  /// True when the live tree matches the checkpoint image exactly.
  bool fixture_clean() const;

  /// Lifecycle telemetry: how many restore_fixture calls took the cheap
  /// verified path vs. paid for a rebuild (rebuild_fixture counts as a
  /// rebuild).  The double-rebuild regression test pins these.
  std::uint64_t fixture_rebuilds() const noexcept { return rebuilds_; }
  std::uint64_t fixture_fast_restores() const noexcept {
    return fast_restores_;
  }

  static constexpr std::string_view kScratchDir = "tmp";
  static constexpr std::string_view kFixtureFile = "tmp/fixture.dat";
  static constexpr std::string_view kReadOnlyFile = "tmp/readonly.dat";

 private:
  void build_fixture();
  Verdict announce(MutationKind kind, std::string_view leaf);

  MutationHub* hub_ = nullptr;
  std::shared_ptr<FsNode> root_;
  /// Checkpoint image: an independent deep copy of the canonical tree.
  std::shared_ptr<FsNode> image_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t fast_restores_ = 0;
};

}  // namespace ballista::sim
