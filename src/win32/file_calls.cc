// Win32 File/Directory Access group (34 calls).
//
// Table 3 hazards carried here: GetFileInformationByHandle (95/98/98SE,
// immediate) and FileTimeToSystemTime (95, immediate) — both write
// caller-supplied structures from kernel/VxD context on the 9x family.
#include <cstring>

#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::ok;
using core::RawArg;
using core::ValueCtx;

sim::FileSystem& fs_of(CallContext& ctx) { return ctx.machine().fs(); }

std::shared_ptr<sim::FsNode> node_at(CallContext& ctx, const std::string& p) {
  return fs_of(ctx).resolve(fs_of(ctx).parse(p, ctx.proc().cwd()));
}

CallOutcome do_create_file(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0), INVALID_HANDLE_VALUE32);
  if (!pr.path) return pr.fail;
  const std::uint32_t access = ctx.arg32(1);
  const std::uint32_t disposition = ctx.arg32(4);
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  // Creates through the filesystem; false when the machine died doing so.
  const auto create = [&](bool fail_if_exists, bool truncate_existing) {
    const auto created =
        fs.create_file(parsed, fail_if_exists, truncate_existing);
    node = created.value;
    return !created.down();
  };
  switch (disposition) {
    case 1:  // CREATE_NEW
      if (node != nullptr)
        return ctx.win_fail(ERR_FILE_EXISTS, INVALID_HANDLE_VALUE32);
      if (!create(true, false)) return core::stopped();
      break;
    case 2:  // CREATE_ALWAYS
      if (!create(false, true)) return core::stopped();
      break;
    case 3:  // OPEN_EXISTING
      if (node == nullptr)
        return ctx.win_fail(ERR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE32);
      break;
    case 4:  // OPEN_ALWAYS
      if (node == nullptr && !create(false, false)) return core::stopped();
      break;
    case 5:  // TRUNCATE_EXISTING
      if (node == nullptr)
        return ctx.win_fail(ERR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE32);
      if (!node->is_dir() && !node->read_only()) node->edit_data().clear();
      break;
    default:
      return ctx.win_fail(ERR_INVALID_PARAMETER, INVALID_HANDLE_VALUE32);
  }
  if (node == nullptr)
    return ctx.win_fail(ERR_PATH_NOT_FOUND, INVALID_HANDLE_VALUE32);
  if (node->is_dir())
    return ctx.win_fail(ERR_ACCESS_DENIED, INVALID_HANDLE_VALUE32);
  const bool wants_write = (access & 0x4000'0000u) != 0;  // GENERIC_WRITE
  if (node->read_only() && wants_write)
    return ctx.win_fail(ERR_ACCESS_DENIED, INVALID_HANDLE_VALUE32);
  auto obj = std::make_shared<sim::FileObject>(
      node,
      sim::FileObject::kAccessRead |
          (wants_write ? sim::FileObject::kAccessWrite : 0u),
      false);
  return core::ok_or_stopped(ctx.proc().handles().insert(std::move(obj)));
}

CallOutcome do_delete_file(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  if (node->is_dir()) return ctx.win_fail(ERR_ACCESS_DENIED, 0);
  const sim::Survived<bool> removed = fs.remove_file(parsed);
  if (removed.down()) return core::stopped();
  if (!removed.value) return ctx.win_fail(ERR_ACCESS_DENIED, 0);
  return ok(1);
}

CallOutcome do_copy_file(CallContext& ctx) {
  const auto src = read_path_arg(ctx, ctx.arg_addr(0));
  if (!src.path) return src.fail;
  const auto dst = read_path_arg(ctx, ctx.arg_addr(1));
  if (!dst.path) return dst.fail;
  const bool fail_if_exists = ctx.arg32(2) != 0;
  auto& fs = fs_of(ctx);
  auto from = node_at(ctx, *src.path);
  if (from == nullptr || from->is_dir())
    return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  const auto to = fs.create_file(fs.parse(*dst.path, ctx.proc().cwd()),
                                 fail_if_exists, true);
  if (to.down()) return core::stopped();
  if (to.value == nullptr) return ctx.win_fail(ERR_FILE_EXISTS, 0);
  to.value->edit_data() = from->data();
  return ok(1);
}

CallOutcome do_move_file(CallContext& ctx) {
  const auto src = read_path_arg(ctx, ctx.arg_addr(0));
  if (!src.path) return src.fail;
  const auto dst = read_path_arg(ctx, ctx.arg_addr(1));
  if (!dst.path) return dst.fail;
  auto& fs = fs_of(ctx);
  const sim::Survived<bool> moved =
      fs.rename(fs.parse(*src.path, ctx.proc().cwd()),
                fs.parse(*dst.path, ctx.proc().cwd()));
  if (moved.down()) return core::stopped();
  if (!moved.value) return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  return ok(1);
}

CallOutcome do_create_dir(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto created = fs.create_dir(fs.parse(*pr.path, ctx.proc().cwd()));
  if (created.down()) return core::stopped();
  if (created.value == nullptr) return ctx.win_fail(ERR_ALREADY_EXISTS, 0);
  return ok(1);
}

CallOutcome do_remove_dir(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) {
    if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose) {
      // Period 9x quirk: the FAT layer reported ERROR_FILE_NOT_FOUND for a
      // missing *directory* — an error, but the wrong one (a Hindering
      // failure on the CRASH scale).
      ctx.proc().set_last_error(ERR_FILE_NOT_FOUND);
      return core::wrong_error(0);
    }
    return ctx.win_fail(ERR_PATH_NOT_FOUND, 0);
  }
  if (!node->is_dir()) return ctx.win_fail(ERR_INVALID_NAME, 0);
  if (!node->children().empty()) return ctx.win_fail(ERR_DIR_NOT_EMPTY, 0);
  const sim::Survived<bool> removed = fs.remove_dir(parsed);
  if (removed.down()) return core::stopped();
  if (!removed.value) return ctx.win_fail(ERR_ACCESS_DENIED, 0);
  return ok(1);
}

CallOutcome do_get_attrs(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0), INVALID_HANDLE_VALUE32);
  if (!pr.path) return pr.fail;
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr)
    return ctx.win_fail(ERR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE32);
  std::uint32_t attrs = 0;
  if (node->is_dir()) attrs |= 0x10;
  if (node->read_only()) attrs |= 0x01;
  if (node->hidden()) attrs |= 0x02;
  if (attrs == 0) attrs = 0x80;  // FILE_ATTRIBUTE_NORMAL
  return ok(attrs);
}

CallOutcome do_set_attrs(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  const std::uint32_t attrs = ctx.arg32(1);
  if ((attrs & ~0x93u) != 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  auto& fs = ctx.machine().fs();
  if (sim::down(fs.set_read_only(*node, (attrs & 0x01) != 0)) ||
      sim::down(fs.set_hidden(*node, (attrs & 0x02) != 0)))
    return core::stopped();
  return ok(1);
}

CallOutcome do_get_attrs_ex(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  if (ctx.arg32(1) != 0)  // GetFileExInfoStandard == 0
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto node = node_at(ctx, *pr.path);
  if (node == nullptr) return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  std::uint8_t data[36] = {};
  data[0] = node->is_dir() ? 0x10 : 0x80;
  const std::uint64_t sz = node->data().size();
  std::memcpy(data + 32, &sz, 4);
  const MemStatus st = ctx.k_write(ctx.arg_addr(2), data);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

sim::FileObject* file_obj(CallContext& ctx, std::uint64_t h,
                          std::optional<CallOutcome>* fail,
                          std::uint64_t fail_ret = 0) {
  auto hc = check_handle(ctx, h, sim::ObjectKind::kFile, fail_ret);
  if (hc.fail) {
    *fail = hc.fail;
    return nullptr;
  }
  return static_cast<sim::FileObject*>(hc.obj.get());
}

CallOutcome do_get_file_size(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  auto* f = file_obj(ctx, ctx.arg(0), &fail, INVALID_HANDLE_VALUE32);
  if (!f) return *fail;
  const Addr high = ctx.arg_addr(1);
  if (high != 0) {
    const MemStatus st = ctx.k_write_u32(high, 0);
    if (st != MemStatus::kOk)
      return ctx.win_mem_fail(st, INVALID_HANDLE_VALUE32);
  }
  return ok(f->node()->data().size());
}

CallOutcome do_gfibh(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  auto* f = file_obj(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  // BY_HANDLE_FILE_INFORMATION: 52 bytes, written from kernel context on the
  // 9x family (Table 3: Catastrophic on 95/98/98SE).
  std::uint8_t info[52] = {};
  info[0] = f->node()->read_only() ? 0x01 : 0x80;
  const std::uint32_t sz = static_cast<std::uint32_t>(f->node()->data().size());
  std::memcpy(info + 32, &sz, 4);
  info[40] = 1;  // nNumberOfLinks
  const MemStatus st = ctx.k_write(ctx.arg_addr(1), info);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_get_file_type(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0));
  if (hc.fail) return *hc.fail;
  switch (hc.obj->kind()) {
    case sim::ObjectKind::kFile: return ok(1);      // FILE_TYPE_DISK
    case sim::ObjectKind::kPipe: return ok(3);      // FILE_TYPE_PIPE
    case sim::ObjectKind::kStdStream: return ok(2); // FILE_TYPE_CHAR
    default:
      return ctx.win_fail(ERR_INVALID_HANDLE, 0);
  }
}

CallOutcome do_set_end_of_file(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  auto* f = file_obj(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  if ((f->access() & sim::FileObject::kAccessWrite) == 0)
    return ctx.win_fail(ERR_ACCESS_DENIED, 0);
  f->node()->edit_data().resize(f->position());
  return ok(1);
}

CallOutcome do_get_full_path(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  const std::uint32_t buflen = ctx.arg32(1);
  const Addr buf = ctx.arg_addr(2);
  auto& fs = fs_of(ctx);
  const std::string full =
      sim::FileSystem::to_string(fs.parse(*pr.path, ctx.proc().cwd()));
  if (full.size() + 1 > buflen) return ok(full.size() + 1);  // size needed
  std::vector<std::uint8_t> bytes(full.begin(), full.end());
  bytes.push_back(0);
  const MemStatus st = ctx.k_write(buf, bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(full.size());
}

CallOutcome write_str_result(CallContext& ctx, const std::string& s, Addr buf,
                             std::uint32_t buflen) {
  if (s.size() + 1 > buflen) return ok(s.size() + 1);
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  bytes.push_back(0);
  const MemStatus st = ctx.k_write(buf, bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(s.size());
}

CallOutcome do_get_temp_path(CallContext& ctx) {
  return write_str_result(ctx, "/tmp/", ctx.arg_addr(1), ctx.arg32(0));
}

CallOutcome do_get_temp_file_name(CallContext& ctx) {
  const auto dir = read_path_arg(ctx, ctx.arg_addr(0));
  if (!dir.path) return dir.fail;
  std::string prefix;
  const MemStatus st = ctx.k_read_str(ctx.arg_addr(1), &prefix, 16);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  const std::uint32_t unique = ctx.arg32(2);
  auto dirnode = node_at(ctx, *dir.path);
  if (dirnode == nullptr || !dirnode->is_dir())
    return ctx.win_fail(ERR_PATH_NOT_FOUND, 0);
  const std::uint32_t id = unique != 0 ? unique : 0x1234;
  char name[64];
  std::snprintf(name, sizeof name, "%s%x.tmp",
                prefix.substr(0, 3).c_str(), id);
  auto& fs = fs_of(ctx);
  const std::string full = *dir.path + "/" + name;
  if (unique == 0 &&
      fs.create_file(fs.parse(full, ctx.proc().cwd()), false, false).down())
    return core::stopped();
  std::vector<std::uint8_t> bytes(full.begin(), full.end());
  bytes.push_back(0);
  const MemStatus wst = ctx.k_write(ctx.arg_addr(3), bytes);
  if (wst != MemStatus::kOk) return ctx.win_mem_fail(wst);
  return ok(id);
}

// WIN32_FIND_DATA model: 4-byte attrs + 44-byte pad + name (up to 260).
CallOutcome write_find_data(CallContext& ctx, Addr out,
                            const std::string& name) {
  std::vector<std::uint8_t> data(48 + 260, 0);
  data[0] = 0x80;
  for (std::size_t i = 0; i < name.size() && i < 259; ++i)
    data[48 + i] = static_cast<std::uint8_t>(name[i]);
  const MemStatus st = ctx.k_write(out, data);
  if (st != MemStatus::kOk)
    return ctx.win_mem_fail(st, INVALID_HANDLE_VALUE32);
  return ok(1);
}

CallOutcome do_find_first(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0), INVALID_HANDLE_VALUE32);
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  // Split into directory + pattern (supporting a trailing '*').
  std::string pattern = *pr.path;
  std::string dir = ".";
  const auto slash = pattern.find_last_of("/\\");
  if (slash != std::string::npos) {
    dir = pattern.substr(0, slash);
    pattern = pattern.substr(slash + 1);
  }
  auto dirnode = fs.resolve(fs.parse(dir, ctx.proc().cwd()));
  if (dirnode == nullptr || !dirnode->is_dir())
    return ctx.win_fail(ERR_PATH_NOT_FOUND, INVALID_HANDLE_VALUE32);
  std::vector<std::string> names;
  const bool star = !pattern.empty() && pattern.back() == '*';
  const std::string stem = star ? pattern.substr(0, pattern.size() - 1) : "";
  for (const auto& [name, child] : dirnode->children()) {
    if (star ? name.rfind(stem, 0) == 0 : name == pattern)
      names.push_back(name);
  }
  if (names.empty())
    return ctx.win_fail(ERR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE32);
  auto find = std::make_shared<sim::FindObject>(std::move(names));
  const CallOutcome wrote =
      write_find_data(ctx, ctx.arg_addr(1), find->names().front());
  if (wrote.status != core::CallStatus::kSuccess) return wrote;
  find->cursor = 1;
  return core::ok_or_stopped(ctx.proc().handles().insert(std::move(find)));
}

CallOutcome do_find_next(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kFindHandle);
  if (hc.fail) return *hc.fail;
  auto* find = static_cast<sim::FindObject*>(hc.obj.get());
  if (find->cursor >= find->names().size())
    return ctx.win_fail(ERR_NO_MORE_FILES, 0);
  return write_find_data(ctx, ctx.arg_addr(1), find->names()[find->cursor++]);
}

CallOutcome do_find_close(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kFindHandle);
  if (hc.fail) return *hc.fail;
  if (ctx.proc().handles().close(static_cast<std::uint32_t>(ctx.arg(0))).down())
    return core::stopped();
  return ok(1);
}

CallOutcome do_get_current_dir(CallContext& ctx) {
  return write_str_result(
      ctx, sim::FileSystem::to_string(ctx.proc().cwd()), ctx.arg_addr(1),
      ctx.arg32(0));
}

CallOutcome do_set_current_dir(CallContext& ctx) {
  const auto pr = read_path_arg(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = fs_of(ctx);
  const auto parsed = fs.parse(*pr.path, ctx.proc().cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr || !node->is_dir())
    return ctx.win_fail(ERR_PATH_NOT_FOUND, 0);
  ctx.proc().set_cwd(parsed);
  return ok(1);
}

CallOutcome do_get_drive_type(CallContext& ctx) {
  std::string s;
  const Addr a = ctx.arg_addr(0);
  if (a == 0) return ok(3);  // NULL => root of current drive: DRIVE_FIXED
  const MemStatus st = ctx.k_read_str(a, &s, 64);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st, 1 /*DRIVE_NO_ROOT*/);
  if (s.size() >= 2 && s[1] == ':') return ok(3);
  if (!s.empty() && (s[0] == '/' || s[0] == '\\')) return ok(3);
  return ok(1);  // DRIVE_NO_ROOT_DIR
}

CallOutcome do_get_disk_free(CallContext& ctx, bool ex) {
  const Addr root = ctx.arg_addr(0);
  if (root != 0) {
    std::string s;
    const MemStatus st = ctx.k_read_str(root, &s, 64);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  for (int i = 1; i <= 3; ++i) {
    const Addr out = ctx.arg_addr(i);
    if (out == 0) continue;
    const MemStatus st = ex ? ctx.k_write_u64(out, 1ull << 30)
                            : ctx.k_write_u32(out, 1u << 16);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

CallOutcome do_get_logical_drives(CallContext& ctx) {
  (void)ctx;
  return ok(0b100);  // just C:
}

CallOutcome do_get_volume_info(CallContext& ctx) {
  const Addr root = ctx.arg_addr(0);
  if (root != 0) {
    std::string s;
    const MemStatus st = ctx.k_read_str(root, &s, 64);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  const Addr name_buf = ctx.arg_addr(1);
  const std::uint32_t name_len = ctx.arg32(2);
  if (name_buf != 0 && name_len > 0) {
    const std::string vol = "BALLISTA";
    std::vector<std::uint8_t> bytes(vol.begin(), vol.end());
    bytes.push_back(0);
    if (bytes.size() > name_len)
      return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
    const MemStatus st = ctx.k_write(name_buf, bytes);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

CallOutcome do_search_path(CallContext& ctx) {
  // SearchPath(lpPath, lpFileName, lpExtension, nBufferLength, lpBuffer, lpFilePart)
  const Addr path = ctx.arg_addr(0);
  if (path != 0) {
    std::string s;
    const MemStatus st = ctx.k_read_str(path, &s, 4096);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  const auto file = read_path_arg(ctx, ctx.arg_addr(1));
  if (!file.path) return file.fail;
  auto node = node_at(ctx, "/tmp/" + *file.path);
  if (node == nullptr) return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  return write_str_result(ctx, "/tmp/" + *file.path, ctx.arg_addr(4),
                          ctx.arg32(3));
}

// FILETIME (100ns since 1601) <-> SYSTEMTIME (8 u16 fields) conversions,
// via the days-from-civil algorithm so the pair round-trips exactly.
constexpr std::uint64_t kEpoch1601Offset = 11644473600ull;  // seconds to 1970

/// Days from 1970-01-01 to y-m-d (proleptic Gregorian).
std::int64_t days_from_civil(std::int64_t y, std::int64_t m, std::int64_t d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const std::int64_t yoe = y - era * 400;
  const std::int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const std::int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

void civil_from_days(std::int64_t z, std::int64_t* y, std::int64_t* m,
                     std::int64_t* d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const std::int64_t doe = z - era * 146097;
  const std::int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = yoe + era * 400;
  const std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const std::int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp < 10 ? mp + 3 : mp - 9;
  *y = yy + (*m <= 2 ? 1 : 0);
}

CallOutcome do_ft_to_st(CallContext& ctx) {
  std::uint64_t ft = 0;
  MemStatus st = ctx.k_read_u64(ctx.arg_addr(0), &ft);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  const std::uint64_t secs = ft / 10'000'000ull;
  if (secs < kEpoch1601Offset || secs > kEpoch1601Offset + 4'000'000'000ull)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const std::uint64_t unix_secs = secs - kEpoch1601Offset;
  std::int64_t y = 0, mo = 0, d = 0;
  civil_from_days(static_cast<std::int64_t>(unix_secs / 86400), &y, &mo, &d);
  std::uint16_t f[8] = {};
  f[0] = static_cast<std::uint16_t>(y);
  f[1] = static_cast<std::uint16_t>(mo);
  f[2] = static_cast<std::uint16_t>((unix_secs / 86400 + 4) % 7);  // wday
  f[3] = static_cast<std::uint16_t>(d);
  f[4] = static_cast<std::uint16_t>((unix_secs / 3600) % 24);
  f[5] = static_cast<std::uint16_t>((unix_secs / 60) % 60);
  f[6] = static_cast<std::uint16_t>(unix_secs % 60);
  std::uint8_t bytes[16];
  std::memcpy(bytes, f, 16);
  st = ctx.k_write(ctx.arg_addr(1), bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_st_to_ft(CallContext& ctx) {
  std::uint8_t bytes[16];
  MemStatus st = ctx.k_read(ctx.arg_addr(0), bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  std::uint16_t f[8];
  std::memcpy(f, bytes, 16);
  if (f[0] < 1601 || f[1] < 1 || f[1] > 12 || f[3] < 1 || f[3] > 31 ||
      f[4] > 23 || f[5] > 59 || f[6] > 61)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const std::int64_t days = days_from_civil(f[0], f[1], f[3]);
  const std::int64_t unix_secs =
      days * 86400 + f[4] * 3600 + f[5] * 60 + f[6];
  st = ctx.k_write_u64(
      ctx.arg_addr(1),
      static_cast<std::uint64_t>(unix_secs + static_cast<std::int64_t>(
                                                 kEpoch1601Offset)) *
          10'000'000ull);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_ft_to_local(CallContext& ctx) {
  std::uint64_t ft = 0;
  MemStatus st = ctx.k_read_u64(ctx.arg_addr(0), &ft);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  st = ctx.k_write_u64(ctx.arg_addr(1), ft - 5ull * 3600 * 10'000'000);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_compare_ft(CallContext& ctx) {
  std::uint64_t a = 0, b = 0;
  MemStatus st = ctx.k_read_u64(ctx.arg_addr(0), &a);
  if (st != MemStatus::kOk)
    return ctx.win_mem_fail(st, static_cast<std::uint64_t>(-1));
  st = ctx.k_read_u64(ctx.arg_addr(1), &b);
  if (st != MemStatus::kOk)
    return ctx.win_mem_fail(st, static_cast<std::uint64_t>(-1));
  return ok(a < b ? static_cast<std::uint64_t>(-1) : (a == b ? 0 : 1));
}

CallOutcome do_get_file_time(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  auto* f = file_obj(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  for (int i = 1; i <= 3; ++i) {
    const Addr out = ctx.arg_addr(i);
    if (out == 0) continue;
    const MemStatus st = ctx.k_write_u64(
        out, (f->node()->times().last_write + kEpoch1601Offset) * 10'000'000ull);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

CallOutcome do_set_file_time(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  auto* f = file_obj(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  for (int i = 1; i <= 3; ++i) {
    const Addr in = ctx.arg_addr(i);
    if (in == 0) continue;
    std::uint64_t ft = 0;
    const MemStatus st = ctx.k_read_u64(in, &ft);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    if (sim::down(
            ctx.machine().fs().set_last_write(*f->node(), ft / 10'000'000ull)))
      return core::stopped();
  }
  return ok(1);
}

}  // namespace

void register_file_calls(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kFileDirAccess;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;
  const auto not95_no_ce = static_cast<std::uint8_t>(
      core::kMaskNotWin95 & ~core::variant_bit(sim::OsVariant::kWinCE));
  const auto kImm = core::CrashStyle::kImmediate;

  d.add("CreateFile", A, G,
        {"path", "flags32", "flags32", "security_attr", "count_small",
         "flags32", "h_any"},
        do_create_file, all);
  d.add("DeleteFile", A, G, {"path"}, do_delete_file, all);
  d.add("CopyFile", A, G, {"path", "path", "int"}, do_copy_file, all);
  d.add("CopyFileEx", A, G,
        {"path", "path", "opt_addr", "opt_addr", "buf", "flags32"},
        do_copy_file, not95_no_ce);
  d.add("MoveFile", A, G, {"path", "path"}, do_move_file, all);
  d.add("CreateDirectory", A, G, {"path", "security_attr"}, do_create_dir,
        all);
  d.add("RemoveDirectory", A, G, {"path"}, do_remove_dir, all);
  d.add("GetFileAttributes", A, G, {"path"}, do_get_attrs, all);
  d.add("SetFileAttributes", A, G, {"path", "flags32"}, do_set_attrs, no_ce);
  d.add("GetFileAttributesEx", A, G, {"path", "flags32", "buf"},
        do_get_attrs_ex, not95_no_ce);
  d.add("GetFileSize", A, G, {"h_file", "buf"}, do_get_file_size, all);

  auto& gfibh = d.add("GetFileInformationByHandle", A, G, {"h_file", "buf"},
                      do_gfibh, all);
  gfibh.hazards[sim::OsVariant::kWin95] = kImm;   // Table 3
  gfibh.hazards[sim::OsVariant::kWin98] = kImm;
  gfibh.hazards[sim::OsVariant::kWin98SE] = kImm;

  d.add("GetFileType", A, G, {"h_any"}, do_get_file_type, no_ce);
  d.add("SetEndOfFile", A, G, {"h_file"}, do_set_end_of_file, all);
  d.add("GetFullPathName", A, G, {"path", "size", "buf", "buf"},
        do_get_full_path, no_ce);
  d.add("GetTempPath", A, G, {"size", "buf"}, do_get_temp_path, no_ce);
  d.add("GetTempFileName", A, G, {"path", "cstr", "flags32", "buf"},
        do_get_temp_file_name, no_ce);
  d.add("FindFirstFile", A, G, {"path", "buf"}, do_find_first, all);
  d.add("FindNextFile", A, G, {"h_find", "buf"}, do_find_next, all);
  d.add("FindClose", A, G, {"h_find"}, do_find_close, all);
  d.add("GetCurrentDirectory", A, G, {"size", "buf"}, do_get_current_dir,
        no_ce);
  d.add("SetCurrentDirectory", A, G, {"path"}, do_set_current_dir, no_ce);
  d.add("GetDriveType", A, G, {"path"}, do_get_drive_type, no_ce);
  d.add("GetDiskFreeSpace", A, G, {"path", "buf", "buf", "buf"},
        [](CallContext& c) { return do_get_disk_free(c, false); }, no_ce);
  d.add("GetDiskFreeSpaceEx", A, G, {"path", "buf", "buf", "buf"},
        [](CallContext& c) { return do_get_disk_free(c, true); },
        not95_no_ce);
  d.add("GetLogicalDrives", A, G, {}, do_get_logical_drives, no_ce);
  d.add("GetVolumeInformation", A, G,
        {"path", "buf", "size", "buf", "buf", "buf"},
        do_get_volume_info, no_ce);
  d.add("SearchPath", A, G, {"cstr", "path", "cstr", "size", "buf", "buf"},
        do_search_path, no_ce);

  auto& ft2st = d.add("FileTimeToSystemTime", A, G,
                      {"filetime_ptr", "systemtime_ptr"}, do_ft_to_st, all);
  ft2st.hazards[sim::OsVariant::kWin95] = kImm;  // Table 3

  d.add("SystemTimeToFileTime", A, G, {"systemtime_ptr", "filetime_ptr"},
        do_st_to_ft, all);
  d.add("FileTimeToLocalFileTime", A, G, {"filetime_ptr", "filetime_ptr"},
        do_ft_to_local, no_ce);
  d.add("CompareFileTime", A, G, {"filetime_ptr", "filetime_ptr"},
        do_compare_ft, no_ce);
  d.add("GetFileTime", A, G,
        {"h_file", "filetime_ptr", "filetime_ptr", "filetime_ptr"},
        do_get_file_time, no_ce);
  d.add("SetFileTime", A, G,
        {"h_file", "filetime_ptr", "filetime_ptr", "filetime_ptr"},
        do_set_file_time, no_ce);
}

}  // namespace ballista::win32
