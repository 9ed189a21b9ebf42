// POSIX File/Directory Access group (30 calls).
//
// Path-taking system calls validate through copy_from_user (EFAULT); the
// directory-stream trio (readdir/closedir/rewinddir) resolves its DIR* in
// the glibc wrapper, in user space — the main source of Linux's residual
// system-call Aborts in Figure 1.
#include <cstring>
#include <optional>

#include "posix/posix.h"

namespace ballista::posix_api {

namespace {

using core::ok;

constexpr std::uint32_t kDirMagic = 0x44495221;

sim::FileSystem& fs_of(CallContext& ctx) { return ctx.machine().fs(); }

std::shared_ptr<sim::FsNode> node_at(CallContext& ctx, const std::string& p) {
  return fs_of(ctx).resolve(fs_of(ctx).parse(p, ctx.proc().cwd()));
}

CallOutcome do_open(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  const std::uint32_t flags = ctx.arg32(1);
  const bool creat = (flags & 0x40) != 0;   // O_CREAT
  const bool trunc = (flags & 0x200) != 0;  // O_TRUNC
  const bool excl = (flags & 0x80) != 0;    // O_EXCL
  const std::uint32_t acc = flags & 3;      // O_RDONLY/O_WRONLY/O_RDWR
  if (acc == 3) return ctx.posix_fail(EINVAL);
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) {
    if (!creat) return ctx.posix_fail(ENOENT);
    const auto created = fs.create_file(parsed, excl, false);
    if (created.down()) return core::stopped();
    node = created.value;
    if (node == nullptr) return ctx.posix_fail(ENOENT);
  } else if (creat && excl) {
    return ctx.posix_fail(EEXIST);
  }
  if (node->is_dir() && acc != 0) return ctx.posix_fail(EISDIR);
  if (node->read_only() && acc != 0) return ctx.posix_fail(EACCES);
  if (trunc && !node->is_dir()) node->edit_data().clear();
  auto obj = std::make_shared<sim::FileObject>(
      node,
      sim::FileObject::kAccessRead |
          (acc != 0 ? sim::FileObject::kAccessWrite : 0u),
      (flags & 0x400) != 0 /*O_APPEND*/);
  return core::ok_or_stopped(ctx.proc().handles().insert(std::move(obj)));
}

CallOutcome do_creat(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto created =
      fs.create_file(fs.parse(*pr.path, ctx.proc().cwd()), false, true);
  if (created.down()) return core::stopped();
  if (created.value == nullptr) return ctx.posix_fail(EACCES);
  auto obj = std::make_shared<sim::FileObject>(
      created.value,
      sim::FileObject::kAccessRead | sim::FileObject::kAccessWrite, false);
  return core::ok_or_stopped(ctx.proc().handles().insert(std::move(obj)));
}

CallOutcome do_unlink(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (node->is_dir()) return ctx.posix_fail(EISDIR);
  const sim::Survived<bool> removed = fs.remove_file(parsed);
  if (removed.down()) return core::stopped();
  if (!removed.value) return ctx.posix_fail(EACCES);
  return ok(0);
}

CallOutcome do_mkdir(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto created = fs.create_dir(fs.parse(*pr.path, ctx.proc().cwd()));
  if (created.down()) return core::stopped();
  if (created.value == nullptr) return ctx.posix_fail(EEXIST);
  return ok(0);
}

CallOutcome do_rmdir(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (!node->is_dir()) return ctx.posix_fail(ENOTDIR);
  if (!node->children().empty()) return ctx.posix_fail(ENOTEMPTY);
  const sim::Survived<bool> removed = fs.remove_dir(parsed);
  if (removed.down()) return core::stopped();
  if (!removed.value) return ctx.posix_fail(EACCES);
  return ok(0);
}

CallOutcome do_chdir(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (!node->is_dir()) return ctx.posix_fail(ENOTDIR);
  ctx.proc().set_cwd(parsed);
  return ok(0);
}

CallOutcome do_fchdir(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  return ctx.posix_fail(ENOTDIR);  // our fds are regular files
}

CallOutcome do_getcwd(CallContext& ctx) {
  const Addr buf = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  const std::string cwd = sim::FileSystem::to_string(ctx.proc().cwd());
  if (size == 0) return ctx.posix_fail(EINVAL);
  if (cwd.size() + 1 > size) return ctx.posix_fail(ERANGE);
  std::vector<std::uint8_t> bytes(cwd.begin(), cwd.end());
  bytes.push_back(0);
  const MemStatus st = ctx.k_write(buf, bytes);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ok(buf);
}

/// stat buffer model: 64 bytes; size at +16, mode at +4.
CallOutcome write_stat(CallContext& ctx, const sim::FsNode& node, Addr out) {
  std::uint8_t st[64] = {};
  const std::uint32_t mode =
      (node.is_dir() ? 0x4000u : 0x8000u) | (node.read_only() ? 0444u : 0644u);
  std::memcpy(st + 4, &mode, 4);
  const std::uint32_t size = static_cast<std::uint32_t>(node.data().size());
  std::memcpy(st + 16, &size, 4);
  const std::uint32_t nlink = static_cast<std::uint32_t>(node.nlink());
  std::memcpy(st + 8, &nlink, 4);
  const MemStatus s = ctx.k_write(out, st);
  if (s != MemStatus::kOk) return ctx.posix_mem_fail(s);
  return ok(0);
}

CallOutcome do_stat(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  return write_stat(ctx, *node, ctx.arg_addr(1));
}

CallOutcome do_fstat(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  auto* f = static_cast<sim::FileObject*>(fc.obj.get());
  return write_stat(ctx, *f->node(), ctx.arg_addr(1));
}

CallOutcome do_access(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  const std::uint32_t mode = ctx.arg32(1);
  if ((mode & ~7u) != 0 && mode != 0) return ctx.posix_fail(EINVAL);
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if ((mode & 2) && node->read_only()) return ctx.posix_fail(EACCES);
  return ok(0);
}

CallOutcome do_chmod(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (sim::down(fs_of(ctx).set_read_only(*node, (ctx.arg32(1) & 0200) == 0)))
    return core::stopped();
  return ok(0);
}

CallOutcome do_fchmod(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  auto* f = static_cast<sim::FileObject*>(fc.obj.get());
  if (sim::down(
          fs_of(ctx).set_read_only(*f->node(), (ctx.arg32(1) & 0200) == 0)))
    return core::stopped();
  return ok(0);
}

CallOutcome do_chown_path(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  if (node_at(ctx, *pr.path) == nullptr) return ctx.posix_fail(ENOENT);
  const std::int32_t uid = static_cast<std::int32_t>(ctx.arg32(1));
  const std::int32_t gid = static_cast<std::int32_t>(ctx.arg32(2));
  if ((uid != -1 && uid != 0 && uid != 500) ||
      (gid != -1 && gid != 0 && gid != 500))
    return ctx.posix_fail(EPERM);  // unprivileged task
  return ok(0);
}

CallOutcome do_fchown(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  return ok(0);
}

CallOutcome do_utime(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  const Addr times = ctx.arg_addr(1);
  if (times != 0) {
    std::uint32_t t = 0;
    const MemStatus st = ctx.k_read_u32(times, &t);
    if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
    if (sim::down(fs_of(ctx).set_last_write(*node, t)))
      return core::stopped();
  }
  return ok(0);
}

CallOutcome do_truncate(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  const std::int64_t len = static_cast<std::int32_t>(ctx.arg32(1));
  if (len < 0) return ctx.posix_fail(EINVAL);
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (node->is_dir()) return ctx.posix_fail(EISDIR);
  if (node->read_only()) return ctx.posix_fail(EACCES);
  node->edit_data().resize(static_cast<std::size_t>(
      std::min<std::int64_t>(len, 1 << 24)));
  return ok(0);
}

CallOutcome do_ftruncate(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  const std::int64_t len = static_cast<std::int32_t>(ctx.arg32(1));
  if (len < 0) return ctx.posix_fail(EINVAL);
  auto* f = static_cast<sim::FileObject*>(fc.obj.get());
  if ((f->access() & sim::FileObject::kAccessWrite) == 0)
    return ctx.posix_fail(EINVAL);
  f->node()->edit_data().resize(
      static_cast<std::size_t>(std::min<std::int64_t>(len, 1 << 24)));
  return ok(0);
}

CallOutcome do_link(CallContext& ctx) {
  const auto from = read_posix_path(ctx, ctx.arg_addr(0));
  if (!from.path) return from.fail;
  const auto to = read_posix_path(ctx, ctx.arg_addr(1));
  if (!to.path) return to.fail;
  auto& fs = fs_of(ctx);
  auto src = node_at(ctx, *from.path);
  if (src == nullptr) return ctx.posix_fail(ENOENT);
  if (src->is_dir()) return ctx.posix_fail(EPERM);
  std::string leaf;
  const auto to_parsed = fs.parse(*to.path, ctx.proc().cwd());
  auto parent = fs.resolve_parent(to_parsed, &leaf);
  if (parent == nullptr || leaf.empty()) return ctx.posix_fail(ENOENT);
  if (parent->children().count(leaf) != 0) return ctx.posix_fail(EEXIST);
  parent->add_child(leaf, src);
  src->set_nlink(src->nlink() + 1);
  return ok(0);
}

CallOutcome do_symlink(CallContext& ctx) {
  const auto target = read_posix_path(ctx, ctx.arg_addr(0));
  if (!target.path) return target.fail;
  const auto linkpath = read_posix_path(ctx, ctx.arg_addr(1));
  if (!linkpath.path) return linkpath.fail;
  auto& fs = fs_of(ctx);
  const auto created =
      fs.create_file(fs.parse(*linkpath.path, ctx.proc().cwd()), true, false);
  if (created.down()) return core::stopped();
  const std::shared_ptr<sim::FsNode>& node = created.value;
  if (node == nullptr) return ctx.posix_fail(EEXIST);
  node->edit_data().assign(target.path->begin(), target.path->end());
  if (sim::down(fs.set_hidden(*node, true)))  // marks "symlink" in this model
    return core::stopped();
  return ok(0);
}

CallOutcome do_readlink(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (!node->hidden()) return ctx.posix_fail(EINVAL);  // not a symlink
  const std::uint64_t bufsiz = ctx.arg(2);
  const std::uint64_t n = std::min<std::uint64_t>(bufsiz, node->data().size());
  if (n > 0) {
    const MemStatus st =
        ctx.k_write(ctx.arg_addr(1), {node->data().data(), n});
    if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  }
  return ok(n);
}

// The directory-stream trio: glibc dereferences the DIR* in user space.
struct DirRef {
  bool ok = false;
  /// Resolving it stopped the call (a fault recorded, or the machine died).
  bool stopped = false;
  sim::DirectoryObject* dir = nullptr;
  Addr d = 0;

  CallOutcome fail(std::uint64_t ret) const {
    return stopped ? core::stopped() : core::error_reported(ret);
  }
};

DirRef resolve_dir(CallContext& ctx, Addr d) {
  DirRef out;
  out.d = d;
  auto& mem = ctx.proc().mem();
  const auto fault = [&](const sim::MaybeFault& f) {
    out.stopped = ctx.trap(f) == MemStatus::kStopped;
    return out.stopped;
  };
  std::uint32_t magic = 0;
  if (fault(mem.read_u32(d, &magic, sim::Access::kUser))) return out;
  if (magic != kDirMagic) {
    // Chase the embedded fd/cursor like the real wrapper would.
    std::uint32_t bogus = 0;
    std::uint8_t scratch = 0;
    if (fault(mem.read_u32(d + 4, &bogus, sim::Access::kUser)) ||
        fault(mem.read_u8(bogus, &scratch, sim::Access::kUser)))
      return out;
    ctx.proc().set_errno(EBADF);
    return out;
  }
  std::uint32_t h = 0;
  if (fault(mem.read_u32(d + 4, &h, sim::Access::kUser))) return out;
  auto obj = ctx.proc().handles().get(h);
  if (obj == nullptr || obj->kind() != sim::ObjectKind::kDirectory) {
    ctx.proc().set_errno(EBADF);
    return out;
  }
  out.dir = static_cast<sim::DirectoryObject*>(obj.get());
  out.ok = true;
  return out;
}

CallOutcome do_opendir(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.posix_fail(ENOENT);
  if (!node->is_dir()) return ctx.posix_fail(ENOTDIR);
  auto& mem = ctx.proc().mem();
  const sim::Survived<Addr> dir = mem.task_alloc(16);
  if (dir.down()) return core::stopped();
  const Addr d = dir.value;
  if (auto f = mem.write_u32(d, kDirMagic, sim::Access::kKernel))
    return ctx.raise(*f);
  const sim::Survived<std::uint64_t> h = ctx.proc().handles().insert(
      std::make_shared<sim::DirectoryObject>(node));
  if (h.down()) return core::stopped();
  if (auto f = mem.write_u32(d + 4, static_cast<std::uint32_t>(h.value),
                             sim::Access::kKernel))
    return ctx.raise(*f);
  return ok(d);
}

CallOutcome do_readdir(CallContext& ctx) {
  const DirRef ref = resolve_dir(ctx, ctx.arg_addr(0));
  if (!ref.ok) return ref.fail(0);
  const auto& children = ref.dir->node()->children();
  if (ref.dir->cursor >= children.size()) return ok(0);  // end of stream
  auto it = children.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(ref.dir->cursor++));
  // dirent: 8-byte header + name, in a per-DIR static area appended to the
  // DIR structure's page.
  const sim::Survived<Addr> entry = ctx.proc().mem().task_alloc(8 + 256);
  if (entry.down()) return core::stopped();
  if (auto f = ctx.proc().mem().write_cstr(entry.value + 8, it->first,
                                           sim::Access::kKernel))
    return ctx.raise(*f);
  return ok(entry.value);
}

CallOutcome do_closedir(CallContext& ctx) {
  const DirRef ref = resolve_dir(ctx, ctx.arg_addr(0));
  if (!ref.ok) return ref.fail(static_cast<std::uint64_t>(-1));
  std::uint32_t h = 0;
  if (auto f = ctx.proc().mem().read_u32(ref.d + 4, &h, sim::Access::kUser))
    return ctx.raise(*f);
  if (ctx.proc().handles().close(h).down()) return core::stopped();
  if (auto f = ctx.proc().mem().write_u32(ref.d, 0, sim::Access::kUser))
    return ctx.raise(*f);
  return ok(0);
}

CallOutcome do_rewinddir(CallContext& ctx) {
  const DirRef ref = resolve_dir(ctx, ctx.arg_addr(0));
  if (!ref.ok) return ref.fail(0);
  ref.dir->cursor = 0;
  return ok(0);
}

CallOutcome do_umask(CallContext& ctx) {
  // Always succeeds; returns the previous mask.  Out-of-range bits are
  // silently masked off — a classic Silent candidate.
  const std::uint32_t mask = ctx.arg32(0);
  return mask > 0777 ? core::silent_success(022) : ok(022);
}

CallOutcome do_mkfifo(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto created =
      fs.create_file(fs.parse(*pr.path, ctx.proc().cwd()), true, false);
  if (created.down()) return core::stopped();
  if (created.value == nullptr) return ctx.posix_fail(EEXIST);
  return ok(0);
}

CallOutcome do_mknod(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  const std::uint32_t mode = ctx.arg32(1);
  if ((mode & 0170000u) == 0020000u || (mode & 0170000u) == 0060000u)
    return ctx.posix_fail(EPERM);  // device nodes need privilege
  auto& fs = fs_of(ctx);
  const auto created =
      fs.create_file(fs.parse(*pr.path, ctx.proc().cwd()), true, false);
  if (created.down()) return core::stopped();
  if (created.value == nullptr) return ctx.posix_fail(EEXIST);
  return ok(0);
}

CallOutcome do_sync(CallContext& ctx) {
  (void)ctx;
  return ok(0);
}

}  // namespace

void register_posix_fs(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kFileDirAccess;
  const auto A = core::ApiKind::kPosixSys;
  const auto L = core::kMaskLinux;

  d.add("open", A, G, {"path", "flags32", "flags32"}, do_open, L);
  d.add("creat", A, G, {"path", "flags32"}, do_creat, L);
  d.add("unlink", A, G, {"path"}, do_unlink, L);
  d.add("mkdir", A, G, {"path", "flags32"}, do_mkdir, L);
  d.add("rmdir", A, G, {"path"}, do_rmdir, L);
  d.add("chdir", A, G, {"path"}, do_chdir, L);
  d.add("fchdir", A, G, {"fd"}, do_fchdir, L);
  d.add("getcwd", A, G, {"buf", "size"}, do_getcwd, L);
  d.add("stat", A, G, {"path", "buf"}, do_stat, L);
  d.add("lstat", A, G, {"path", "buf"}, do_stat, L);
  d.add("fstat", A, G, {"fd", "buf"}, do_fstat, L);
  d.add("access", A, G, {"path", "flags32"}, do_access, L);
  d.add("chmod", A, G, {"path", "flags32"}, do_chmod, L);
  d.add("fchmod", A, G, {"fd", "flags32"}, do_fchmod, L);
  d.add("chown", A, G, {"path", "uid_arg", "uid_arg"}, do_chown_path, L);
  d.add("fchown", A, G, {"fd", "uid_arg", "uid_arg"}, do_fchown, L);
  d.add("utime", A, G, {"path", "buf"}, do_utime, L);
  d.add("truncate", A, G, {"path", "size"}, do_truncate, L);
  d.add("ftruncate", A, G, {"fd", "size"}, do_ftruncate, L);
  d.add("link", A, G, {"path", "path"}, do_link, L);
  d.add("symlink", A, G, {"path", "path"}, do_symlink, L);
  d.add("readlink", A, G, {"path", "buf", "size"}, do_readlink, L);
  d.add("opendir", A, G, {"path"}, do_opendir, L);
  d.add("readdir", A, G, {"dir_ptr"}, do_readdir, L);
  d.add("closedir", A, G, {"dir_ptr"}, do_closedir, L);
  d.add("rewinddir", A, G, {"dir_ptr"}, do_rewinddir, L);
  d.add("umask", A, G, {"flags32"}, do_umask, L);
  d.add("mkfifo", A, G, {"path", "flags32"}, do_mkfifo, L);
  d.add("mknod", A, G, {"path", "flags32", "int"}, do_mknod, L);
  d.add("sync", A, G, {}, do_sync, L);
}

}  // namespace ballista::posix_api
