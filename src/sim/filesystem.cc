#include "sim/filesystem.h"

#include <algorithm>

#include "sim/mutation.h"

namespace ballista::sim {

namespace {

/// FNV-1a over the leaf name: a stable, human-diffable detail value for fs
/// mutation points (the full path would drag allocation into the funnel).
std::uint64_t leaf_hash(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Gives `to` the contents and metadata of `from` (not its name, kind or
/// children).
void copy_fields(const FsNode& from, FsNode& to) {
  to.edit_data() = from.data();
  to.set_read_only(from.read_only());
  to.set_hidden(from.hidden());
  to.set_times(from.times());
  to.set_nlink(from.nlink());
}

/// Independent deep copy of a node tree (checkpoint images must not share
/// structure with the live tree, or mutations would corrupt the oracle),
/// its nodes counting their edits into `epoch`.
std::shared_ptr<FsNode> clone_tree(
    const FsNode& node, const std::shared_ptr<std::uint64_t>& epoch) {
  auto copy = std::make_shared<FsNode>(node.name(), node.is_dir(), epoch);
  copy_fields(node, *copy);
  for (const auto& [name, child] : node.children())
    copy->add_child(name, clone_tree(*child, epoch));
  return copy;
}

/// Field-by-field equality of a live tree against a checkpoint image.  Walks
/// at most the smaller tree plus one child-count check, so the cost is
/// bounded by the canonical tree when clean and bails at the first
/// discrepancy when dirty.
bool tree_matches(const FsNode& live, const FsNode& image) {
  if (live.name() != image.name() || live.is_dir() != image.is_dir())
    return false;
  if (live.read_only() != image.read_only() ||
      live.hidden() != image.hidden() || live.nlink() != image.nlink())
    return false;
  if (live.times().creation != image.times().creation ||
      live.times().last_access != image.times().last_access ||
      live.times().last_write != image.times().last_write)
    return false;
  if (live.data() != image.data()) return false;
  if (live.children().size() != image.children().size()) return false;
  auto li = live.children().begin();
  auto ii = image.children().begin();
  for (; ii != image.children().end(); ++li, ++ii) {
    if (li->first != ii->first) return false;
    if (!tree_matches(*li->second, *ii->second)) return false;
  }
  return true;
}

}  // namespace

FileSystem::FileSystem() : root_(std::make_shared<FsNode>("", true, epoch_)) {
  build_fixture();
  checkpoint();
}

Verdict FileSystem::announce(MutationKind kind, std::string_view leaf) {
  return hub_ != nullptr ? hub_->notify(kind, leaf_hash(leaf)) : Verdict::kUp;
}

Verdict FileSystem::set_read_only(FsNode& node, bool value) {
  if (node.read_only() == value) return Verdict::kUp;  // no change, no point
  if (announce(MutationKind::kFsMeta, node.name()) == Verdict::kDown)
    return Verdict::kDown;
  node.set_read_only(value);
  return Verdict::kUp;
}

Verdict FileSystem::set_hidden(FsNode& node, bool value) {
  if (node.hidden() == value) return Verdict::kUp;
  if (announce(MutationKind::kFsMeta, node.name()) == Verdict::kDown)
    return Verdict::kDown;
  node.set_hidden(value);
  return Verdict::kUp;
}

Verdict FileSystem::set_last_write(FsNode& node, std::uint64_t t) {
  if (node.times().last_write == t) return Verdict::kUp;
  if (announce(MutationKind::kFsMeta, node.name()) == Verdict::kDown)
    return Verdict::kDown;
  FileTimes times = node.times();
  times.last_write = t;
  node.set_times(times);
  return Verdict::kUp;
}

void FileSystem::checkpoint() {
  image_ = clone_tree(*root_, nullptr);
  clean_epoch_ = *epoch_;
}

bool FileSystem::fixture_clean() const {
  return image_ != nullptr && tree_matches(*root_, *image_);
}

bool FileSystem::restore_fixture() {
  if (epoch_clean()) {
    ++fast_restores_;
    return false;
  }
  ++walks_;
  if (fixture_clean()) {
    clean_epoch_ = *epoch_;
    ++fast_restores_;
    return false;
  }
  rebuild_fixture();
  return true;
}

void FileSystem::rebuild_fixture() {
  ++rebuilds_;
  // The root node object must persist (open DirectoryObjects and cwd walks
  // reach the tree through it), so its own metadata is restored in place —
  // chmod("/", ...)-style damage must not outlive the rebuild, or the "known
  // disk image" each test case starts from would depend on what ran before.
  root_->clear_children();
  copy_fields(*image_, *root_);
  for (const auto& [name, child] : image_->children())
    root_->add_child(name, clone_tree(*child, epoch_));
  clean_epoch_ = *epoch_;
}

ParsedPath FileSystem::parse(std::string_view path, const ParsedPath& cwd) const {
  ParsedPath out;
  if (path.empty()) {
    out.valid = false;
    return out;
  }
  // Strip a drive prefix ("C:", "D:", ...).  A drive prefix implies an
  // absolute interpretation even without a following separator.
  bool absolute = false;
  if (path.size() >= 2 && path[1] == ':' &&
      (std::isalpha(static_cast<unsigned char>(path[0])) != 0)) {
    path.remove_prefix(2);
    absolute = true;
  }
  if (!path.empty() && (path.front() == '/' || path.front() == '\\'))
    absolute = true;
  if (!absolute) out.components = cwd.components;

  std::string comp;
  auto flush = [&] {
    if (comp.empty() || comp == ".") {
      comp.clear();
      return;
    }
    if (comp == "..") {
      if (!out.components.empty()) out.components.pop_back();
    } else {
      out.components.push_back(comp);
    }
    comp.clear();
  };
  for (char c : path) {
    if (c == '/' || c == '\\') {
      flush();
    } else if (c == '\0') {
      out.valid = false;
      return out;
    } else {
      comp.push_back(c);
    }
  }
  flush();
  return out;
}

std::string FileSystem::to_string(const ParsedPath& p) {
  std::string s;
  for (const auto& c : p.components) {
    s += '/';
    s += c;
  }
  return s.empty() ? "/" : s;
}

std::shared_ptr<FsNode> FileSystem::resolve(const ParsedPath& p) const {
  if (!p.valid) return nullptr;
  std::shared_ptr<FsNode> node = root_;
  for (const auto& c : p.components) {
    if (!node->is_dir()) return nullptr;
    auto it = node->children().find(c);
    if (it == node->children().end()) return nullptr;
    node = it->second;
  }
  return node;
}

std::shared_ptr<FsNode> FileSystem::resolve_parent(const ParsedPath& p,
                                                   std::string* leaf) const {
  if (!p.valid || p.components.empty()) return nullptr;
  ParsedPath parent = p;
  *leaf = parent.components.back();
  parent.components.pop_back();
  auto node = resolve(parent);
  if (node == nullptr || !node->is_dir()) return nullptr;
  return node;
}

Survived<std::shared_ptr<FsNode>> FileSystem::create_file(
    const ParsedPath& p, bool fail_if_exists, bool truncate_existing) {
  const Survived<std::shared_ptr<FsNode>> kDown{nullptr, Verdict::kDown};
  std::string leaf;
  auto parent = resolve_parent(p, &leaf);
  if (parent == nullptr || leaf.empty()) return {};
  auto it = parent->children().find(leaf);
  if (it != parent->children().end()) {
    auto existing = it->second;
    if (existing->is_dir() || fail_if_exists) return {};
    if (existing->read_only()) return {};
    if (truncate_existing && !existing->data().empty()) {
      if (announce(MutationKind::kFsData, leaf) == Verdict::kDown) return kDown;
      existing->edit_data().clear();
    }
    return {existing};
  }
  if (announce(MutationKind::kFsCreate, leaf) == Verdict::kDown) return kDown;
  auto node = std::make_shared<FsNode>(leaf, false, epoch_);
  parent->add_child(leaf, node);
  return {node};
}

Survived<std::shared_ptr<FsNode>> FileSystem::create_dir(const ParsedPath& p) {
  std::string leaf;
  auto parent = resolve_parent(p, &leaf);
  if (parent == nullptr || leaf.empty()) return {};
  if (parent->children().count(leaf) != 0) return {};
  if (announce(MutationKind::kFsCreate, leaf) == Verdict::kDown)
    return {nullptr, Verdict::kDown};
  auto node = std::make_shared<FsNode>(leaf, true, epoch_);
  parent->add_child(leaf, node);
  return {node};
}

Survived<bool> FileSystem::remove_file(const ParsedPath& p) {
  std::string leaf;
  auto parent = resolve_parent(p, &leaf);
  if (parent == nullptr) return {false};
  auto it = parent->children().find(leaf);
  if (it == parent->children().end() || it->second->is_dir()) return {false};
  if (it->second->read_only()) return {false};
  if (announce(MutationKind::kFsRemove, leaf) == Verdict::kDown)
    return {false, Verdict::kDown};
  it->second->set_nlink(it->second->nlink() - 1);
  parent->remove_child(leaf);
  return {true};
}

Survived<bool> FileSystem::remove_dir(const ParsedPath& p) {
  std::string leaf;
  auto parent = resolve_parent(p, &leaf);
  if (parent == nullptr) return {false};
  auto it = parent->children().find(leaf);
  if (it == parent->children().end() || !it->second->is_dir()) return {false};
  if (!it->second->children().empty()) return {false};
  if (announce(MutationKind::kFsRemove, leaf) == Verdict::kDown)
    return {false, Verdict::kDown};
  parent->remove_child(leaf);
  return {true};
}

Survived<bool> FileSystem::rename(const ParsedPath& from,
                                  const ParsedPath& to) {
  std::string from_leaf;
  auto from_parent = resolve_parent(from, &from_leaf);
  if (from_parent == nullptr) return {false};
  auto it = from_parent->children().find(from_leaf);
  if (it == from_parent->children().end()) return {false};

  // Moving a directory into its own subtree (rename("/a", "/a/b")) would
  // detach the node from the root while re-attaching it beneath itself: a
  // shared_ptr cycle unreachable from root_.  Real systems reject this
  // (POSIX EINVAL); paths are normalized, so a component-prefix test is exact.
  if (from.components.size() <= to.components.size() &&
      std::equal(from.components.begin(), from.components.end(),
                 to.components.begin()))
    return {false};

  std::string to_leaf;
  auto to_parent = resolve_parent(to, &to_leaf);
  if (to_parent == nullptr || to_leaf.empty()) return {false};
  if (to_parent->children().count(to_leaf) != 0) return {false};

  // One point for the whole move: rename is atomic with respect to cuts (a
  // torn rename — detached but not re-attached — is not a state this model
  // can leave behind, matching journalled-metadata semantics).
  if (announce(MutationKind::kFsRename, to_leaf) == Verdict::kDown)
    return {false, Verdict::kDown};
  auto node = it->second;
  from_parent->remove_child(from_leaf);
  to_parent->add_child(to_leaf, std::move(node));
  return {true};
}

void FileSystem::build_fixture() {
  // Runs before the hub is wired, so nothing here announces.
  ParsedPath scratch;
  scratch.components = {"tmp"};
  (void)create_dir(scratch);

  ParsedPath fixture;
  fixture.components = {"tmp", "fixture.dat"};
  auto f = create_file(fixture, false, true).value;
  const std::string payload =
      "ballista fixture file: twelve dozen dependable bytes of test data.\n";
  f->edit_data().assign(payload.begin(), payload.end());

  ParsedPath ro;
  ro.components = {"tmp", "readonly.dat"};
  auto r = create_file(ro, false, true).value;
  const std::string ro_payload = "read-only fixture\n";
  r->edit_data().assign(ro_payload.begin(), ro_payload.end());
  r->set_read_only(true);
}

}  // namespace ballista::sim
