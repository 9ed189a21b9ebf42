// Win32 Process Environment group (32 calls): environment variables, module
// and system information, system time, tick counts, last-error plumbing.
#include <cstring>

#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::ok;

CallOutcome write_cstr_out(CallContext& ctx, const std::string& s, Addr buf,
                           std::uint32_t buflen) {
  if (s.size() + 1 > buflen) {
    if (ctx.mut().name == "GetEnvironmentVariable") return ok(s.size() + 1);
    return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  }
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  bytes.push_back(0);
  const MemStatus st = ctx.k_write(buf, bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(s.size());
}

CallOutcome do_get_env(CallContext& ctx) {
  std::string name;
  MemStatus st = ctx.k_read_str(ctx.arg_addr(0), &name, 4096);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  auto it = ctx.proc().env().find(name);
  if (it == ctx.proc().env().end())
    return ctx.win_fail(ERR_ENVVAR_NOT_FOUND, 0);
  return write_cstr_out(ctx, it->second, ctx.arg_addr(1), ctx.arg32(2));
}

CallOutcome do_set_env(CallContext& ctx) {
  std::string name;
  MemStatus st = ctx.k_read_str(ctx.arg_addr(0), &name, 4096);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  if (name.empty() || name.find('=') != std::string::npos)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const Addr value = ctx.arg_addr(1);
  if (value == 0) {
    if (ctx.proc().env().count(name) != 0) ctx.proc().edit_env().erase(name);
    return ok(1);
  }
  std::string v;
  st = ctx.k_read_str(value, &v, 4096);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  ctx.proc().edit_env()[name] = v;
  return ok(1);
}

CallOutcome do_get_env_strings(CallContext& ctx) {
  // Builds the double-NUL-terminated block in fresh task memory.
  std::string block;
  for (const auto& [k, v] : ctx.proc().env()) {
    block += k;
    block += '=';
    block += v;
    block.push_back('\0');
  }
  block.push_back('\0');
  const sim::Survived<Addr> a = ctx.proc().mem().task_alloc(block.size());
  if (a.down()) return core::stopped();
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(block.data()), block.size()};
  if (auto f =
          ctx.proc().mem().write_bytes(a.value, bytes, sim::Access::kKernel))
    return ctx.raise(*f);
  return ok(a.value);
}

CallOutcome do_free_env_strings(CallContext& ctx) {
  const Addr a = ctx.arg_addr(0);
  if (a == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (!ctx.proc().mem().is_mapped(a)) {
    if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose)
      return core::silent_success(1);
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  }
  if (sim::down(ctx.proc().mem().unmap(a, sim::kPageSize)))
    return core::stopped();
  return ok(1);
}

CallOutcome do_expand_env(CallContext& ctx) {
  std::string src;
  const MemStatus st = ctx.k_read_str(ctx.arg_addr(0), &src, 4096);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  std::string out;
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] != '%') {
      out.push_back(src[i]);
      continue;
    }
    const auto end = src.find('%', i + 1);
    if (end == std::string::npos) {
      out.append(src.substr(i));
      break;
    }
    const std::string name = src.substr(i + 1, end - i - 1);
    auto it = ctx.proc().env().find(name);
    out += it != ctx.proc().env().end() ? it->second : "%" + name + "%";
    i = end;
  }
  return write_cstr_out(ctx, out, ctx.arg_addr(1), ctx.arg32(2));
}

CallOutcome do_get_command_line(CallContext& ctx) {
  // Returns a pointer to the task's command line, materialized on demand.
  return core::ok_or_stopped(
      ctx.proc().mem().task_alloc_cstr("ballista_test.exe /case"));
}

CallOutcome do_get_startup_info(CallContext& ctx) {
  // STARTUPINFO: 68 bytes; cb filled in.
  std::uint8_t info[68] = {};
  info[0] = 68;
  const MemStatus st = ctx.k_write(ctx.arg_addr(0), info);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_get_module_file_name(CallContext& ctx) {
  const std::uint64_t h = ctx.arg(0);
  if (h != 0) {  // NULL means "current module"; anything else must be valid
    auto hc = check_handle(ctx, h, sim::ObjectKind::kModule);
    if (hc.fail) return *hc.fail;
  }
  return write_cstr_out(ctx, "/tmp/ballista_test.exe", ctx.arg_addr(1),
                        ctx.arg32(2));
}

CallOutcome do_get_module_handle(CallContext& ctx) {
  const Addr name = ctx.arg_addr(0);
  if (name == 0) return ok(0x400000);  // base of the current image
  std::string n;
  const MemStatus st = ctx.k_read_str(name, &n, 260);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  if (n == "kernel32.dll" || n == "KERNEL32.DLL" || n == "kernel32")
    return ok(0x77000000);
  return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
}

CallOutcome dir_string(CallContext& ctx, const char* value) {
  return write_cstr_out(ctx, value, ctx.arg_addr(0), ctx.arg32(1));
}

CallOutcome do_get_computer_name(CallContext& ctx) {
  const Addr buf = ctx.arg_addr(0);
  const Addr size_ptr = ctx.arg_addr(1);
  std::uint32_t cap = 0;
  MemStatus st = ctx.k_read_u32(size_ptr, &cap);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  const std::string name = "BALLISTA-PC";
  if (name.size() + 1 > cap) {
    if (ctx.k_write_u32(size_ptr, static_cast<std::uint32_t>(
                                      name.size() + 1)) == MemStatus::kStopped)
      return core::stopped();
    return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  }
  std::vector<std::uint8_t> bytes(name.begin(), name.end());
  bytes.push_back(0);
  st = ctx.k_write(buf, bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  if (ctx.k_write_u32(size_ptr, static_cast<std::uint32_t>(name.size())) ==
      MemStatus::kStopped)
    return core::stopped();
  return ok(1);
}

CallOutcome do_set_computer_name(CallContext& ctx) {
  std::string name;
  const MemStatus st = ctx.k_read_str(ctx.arg_addr(0), &name, 64);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  if (name.empty() || name.size() > 15)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  for (char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-')
      return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(1);
}

CallOutcome do_get_version(CallContext& ctx) {
  switch (ctx.variant()) {
    case sim::OsVariant::kWin95: return ok(0xC3B60004);
    case sim::OsVariant::kWin98:
    case sim::OsVariant::kWin98SE: return ok(0xC0000A04);
    case sim::OsVariant::kWinNT4: return ok(0x05650004);
    case sim::OsVariant::kWin2000: return ok(0x08930005);
    case sim::OsVariant::kWinCE: return ok(0x00020B02);
    case sim::OsVariant::kLinux: break;
  }
  return ok(0);
}

CallOutcome do_get_version_ex(CallContext& ctx) {
  const Addr out = ctx.arg_addr(0);
  std::uint32_t cb = 0;
  MemStatus st = ctx.k_read_u32(out, &cb);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  if (cb < 148) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  std::uint8_t info[148] = {};
  info[0] = 148;
  info[4] = sim::is_nt_family(ctx.variant()) ? 5 : 4;
  st = ctx.k_write(out, info);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_get_system_info(CallContext& ctx) {
  std::uint8_t info[36] = {};
  info[4] = 0x10;                      // page size low byte (4096)
  info[5] = 0x10;
  info[20] = 1;                        // one processor
  const MemStatus st = ctx.k_write(ctx.arg_addr(0), info);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome write_systemtime(CallContext& ctx, Addr out) {
  const std::uint64_t secs = 930'000'000ull + ctx.machine().ticks() / 1000;
  std::uint16_t f[8] = {};
  f[0] = static_cast<std::uint16_t>(1970 + secs / 31'556'952ull);
  f[1] = static_cast<std::uint16_t>(1 + (secs / 2'629'746ull) % 12);
  f[3] = static_cast<std::uint16_t>(1 + (secs / 86400) % 28);
  f[4] = static_cast<std::uint16_t>((secs / 3600) % 24);
  f[5] = static_cast<std::uint16_t>((secs / 60) % 60);
  f[6] = static_cast<std::uint16_t>(secs % 60);
  std::uint8_t bytes[16];
  std::memcpy(bytes, f, 16);
  const MemStatus st = ctx.k_write(out, bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_get_system_time(CallContext& ctx) {
  return write_systemtime(ctx, ctx.arg_addr(0));
}

CallOutcome do_set_system_time(CallContext& ctx) {
  std::uint8_t bytes[16];
  const MemStatus st = ctx.k_read(ctx.arg_addr(0), bytes);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  std::uint16_t f[8];
  std::memcpy(f, bytes, 16);
  if (f[0] < 1980 || f[0] > 2099 || f[1] < 1 || f[1] > 12 || f[3] < 1 ||
      f[3] > 31 || f[4] > 23 || f[5] > 59 || f[6] > 61)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(1);
}

CallOutcome do_get_tick_count(CallContext& ctx) {
  return ok(ctx.machine().ticks() & 0xffffffffull);
}

CallOutcome do_get_last_error(CallContext& ctx) {
  return ok(ctx.proc().last_error());
}

CallOutcome do_set_last_error(CallContext& ctx) {
  ctx.proc().set_last_error(ctx.arg32(0));
  return ok(0);
}

CallOutcome do_system_time_as_filetime(CallContext& ctx) {
  const std::uint64_t secs = 930'000'000ull + ctx.machine().ticks() / 1000;
  const MemStatus st = ctx.k_write_u64(
      ctx.arg_addr(0), (secs + 11644473600ull) * 10'000'000ull);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(0);
}

CallOutcome do_qpc(CallContext& ctx, std::uint64_t value) {
  const MemStatus st = ctx.k_write_u64(ctx.arg_addr(0), value);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_get_timezone_info(CallContext& ctx) {
  std::uint8_t info[172] = {};
  info[0] = 0x2C;  // bias 300 minutes, low byte
  info[1] = 0x01;
  const MemStatus st = ctx.k_write(ctx.arg_addr(0), info);
  if (st != MemStatus::kOk)
    return ctx.win_mem_fail(st, INVALID_HANDLE_VALUE32);
  return ok(0);  // TIME_ZONE_ID_UNKNOWN
}

CallOutcome do_get_current_process(CallContext& ctx) {
  (void)ctx;
  return ok(kPseudoCurrentProcess);
}
CallOutcome do_get_current_thread(CallContext& ctx) {
  (void)ctx;
  return ok(kPseudoCurrentThread);
}
CallOutcome do_get_current_pid(CallContext& ctx) {
  return ok(ctx.proc().pid());
}
CallOutcome do_get_current_tid(CallContext& ctx) {
  return ok(ctx.proc().main_thread()->tid());
}

CallOutcome do_get_process_version(CallContext& ctx) {
  const std::uint32_t pid = ctx.arg32(0);
  if (pid != 0 && pid != ctx.proc().pid())
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(0x00040000);
}

}  // namespace

void register_env_calls(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kProcessEnvironment;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;

  d.add("GetEnvironmentVariable", A, G, {"cstr", "buf", "size"}, do_get_env,
        no_ce);
  d.add("SetEnvironmentVariable", A, G, {"cstr", "cstr"}, do_set_env, no_ce);
  d.add("GetEnvironmentStrings", A, G, {}, do_get_env_strings, no_ce);
  d.add("FreeEnvironmentStrings", A, G, {"buf"}, do_free_env_strings, no_ce);
  d.add("ExpandEnvironmentStrings", A, G, {"cstr", "buf", "size"},
        do_expand_env, no_ce);
  d.add("GetCommandLine", A, G, {}, do_get_command_line, all);
  d.add("GetStartupInfo", A, G, {"buf"}, do_get_startup_info, no_ce);
  d.add("GetModuleFileName", A, G, {"h_any", "buf", "size"},
        do_get_module_file_name, all);
  d.add("GetModuleHandle", A, G, {"cstr"}, do_get_module_handle, all);
  d.add("GetSystemDirectory", A, G, {"buf", "size"},
        [](CallContext& c) { return dir_string(c, "/windows/system32"); },
        no_ce);
  d.add("GetWindowsDirectory", A, G, {"buf", "size"},
        [](CallContext& c) { return dir_string(c, "/windows"); }, no_ce);
  d.add("GetComputerName", A, G, {"buf", "buf"}, do_get_computer_name, no_ce);
  d.add("SetComputerName", A, G, {"cstr"}, do_set_computer_name, no_ce);
  d.add("GetVersion", A, G, {}, do_get_version, all);
  d.add("GetVersionEx", A, G, {"buf"}, do_get_version_ex, no_ce);
  d.add("GetSystemInfo", A, G, {"buf"}, do_get_system_info, all);
  d.add("GetSystemTime", A, G, {"buf"}, do_get_system_time, all);
  d.add("SetSystemTime", A, G, {"systemtime_ptr"}, do_set_system_time, all);
  d.add("GetLocalTime", A, G, {"buf"}, do_get_system_time, all);
  d.add("SetLocalTime", A, G, {"systemtime_ptr"}, do_set_system_time, no_ce);
  d.add("GetTickCount", A, G, {}, do_get_tick_count, all);
  d.add("GetLastError", A, G, {}, do_get_last_error, all);
  d.add("SetLastError", A, G, {"flags32"}, do_set_last_error, all);
  d.add("GetSystemTimeAsFileTime", A, G, {"filetime_ptr"},
        do_system_time_as_filetime, no_ce);
  d.add("QueryPerformanceCounter", A, G, {"buf"},
        [](CallContext& c) { return do_qpc(c, c.machine().ticks() * 1000); },
        no_ce);
  d.add("QueryPerformanceFrequency", A, G, {"buf"},
        [](CallContext& c) { return do_qpc(c, 1'000'000); }, no_ce);
  d.add("GetTimeZoneInformation", A, G, {"buf"}, do_get_timezone_info, no_ce);
  d.add("GetCurrentProcess", A, G, {}, do_get_current_process, all);
  d.add("GetCurrentThread", A, G, {}, do_get_current_thread, all);
  d.add("GetCurrentProcessId", A, G, {}, do_get_current_pid, all);
  d.add("GetCurrentThreadId", A, G, {}, do_get_current_tid, all);
  d.add("GetProcessVersion", A, G, {"int"}, do_get_process_version, no_ce);
}

}  // namespace ballista::win32
