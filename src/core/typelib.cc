#include "core/typelib.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ballista::core {

DataType& TypeLibrary::make(std::string name, const DataType* parent) {
  assert(by_name_.count(name) == 0 && "duplicate data type");
  auto t = std::make_unique<DataType>(name, parent);
  DataType& ref = *t;
  by_name_.emplace(std::move(name), t.get());
  order_.push_back(std::move(t));
  return ref;
}

const DataType& TypeLibrary::get(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end())
    throw std::out_of_range("unknown data type: " + std::string(name));
  return *it->second;
}

namespace {

RawArg constant(ValueCtx&, RawArg v) { return v; }

ValueFactory fixed(RawArg v) {
  return [v](ValueCtx& c) { return constant(c, v); };
}

ValueFactory fixed_f(double d) {
  return [d](ValueCtx&) { return std::bit_cast<RawArg>(d); };
}

}  // namespace

void register_base_types(TypeLibrary& lib) {
  using sim::kPermRead;
  using sim::kPermRW;

  // --- plain int: no contract, nothing is exceptional -----------------------
  auto& t_int = lib.make("int");
  t_int.add("int_0", false, fixed(0))
      .add("int_1", false, fixed(1))
      .add("int_neg1", false, fixed(static_cast<std::uint64_t>(-1)))
      .add("int_2", false, fixed(2))
      .add("int_64", false, fixed(64))
      .add("int_1024", false, fixed(1024))
      .add("int_max", false, fixed(0x7fffffff))
      .add("int_min", false, fixed(0x80000000ull));

  // --- size/length arguments -------------------------------------------------
  auto& t_size = lib.make("size");
  t_size.add("size_0", false, fixed(0))
      .add("size_1", false, fixed(1))
      .add("size_16", false, fixed(16))
      .add("size_255", false, fixed(255))
      .add("size_page", false, fixed(4096))
      .add("size_64k", true, fixed(65536))
      .add("size_1meg", true, fixed(1 << 20))
      .add("size_neg1", true, fixed(0xffffffffull))
      .add("size_halfmax", true, fixed(0x80000000ull));

  // --- small counts (wait counts, dup counts) --------------------------------
  auto& t_count = lib.make("count_small");
  t_count.add("cnt_0", true, fixed(0))
      .add("cnt_1", false, fixed(1))
      .add("cnt_4", false, fixed(4))
      .add("cnt_64", false, fixed(64))
      .add("cnt_65", true, fixed(65))
      .add("cnt_neg1", true, fixed(0xffffffffull))
      .add("cnt_1000", true, fixed(1000));

  // --- flag words -------------------------------------------------------------
  auto& t_flags = lib.make("flags32");
  t_flags.add("flags_0", false, fixed(0))
      .add("flags_1", false, fixed(1))
      .add("flags_2", false, fixed(2))
      .add("flags_4", false, fixed(4))
      .add("flags_all", true, fixed(0xffffffffull))
      .add("flags_high", true, fixed(0x80000000ull));

  // --- timeouts ---------------------------------------------------------------
  auto& t_timeout = lib.make("timeout_ms");
  t_timeout.add("to_0", false, fixed(0))
      .add("to_1", false, fixed(1))
      .add("to_100", false, fixed(100))
      .add("to_infinite", false, fixed(0xffffffffull))
      .add("to_neg2", true, fixed(0xfffffffeull));

  // --- doubles (C math) -------------------------------------------------------
  auto& t_double = lib.make("double");
  t_double.add("d_0", false, fixed_f(0.0))
      .add("d_1", false, fixed_f(1.0))
      .add("d_neg1", false, fixed_f(-1.0))
      .add("d_half", false, fixed_f(0.5))
      .add("d_pi", false, fixed_f(3.14159265358979))
      .add("d_1e10", false, fixed_f(1e10))
      .add("d_dblmax", false, fixed_f(std::numeric_limits<double>::max()))
      .add("d_negmax", false, fixed_f(-std::numeric_limits<double>::max()))
      .add("d_denorm", false,
           fixed_f(std::numeric_limits<double>::denorm_min()))
      .add("d_nan", true, fixed_f(std::numeric_limits<double>::quiet_NaN()))
      .add("d_inf", true, fixed_f(std::numeric_limits<double>::infinity()))
      .add("d_neginf", true,
           fixed_f(-std::numeric_limits<double>::infinity()));

  // --- the ctype argument: int that must be EOF or unsigned char -------------
  auto& t_char = lib.make("char_int");
  t_char.add("ch_a", false, fixed('a'))
      .add("ch_Z", false, fixed('Z'))
      .add("ch_0", false, fixed('0'))
      .add("ch_space", false, fixed(' '))
      .add("ch_tilde", false, fixed('~'))
      .add("ch_nul", false, fixed(0))
      .add("ch_tab", false, fixed(9))
      .add("ch_127", false, fixed(127))
      .add("ch_eof", false, fixed(static_cast<std::uint64_t>(-1)))
      .add("ch_128", true, fixed(128))
      .add("ch_255", true, fixed(255))
      .add("ch_256", true, fixed(256))
      .add("ch_neg2", true, fixed(static_cast<std::uint64_t>(-2)))
      .add("ch_65536", true, fixed(65536))
      .add("ch_intmax", true, fixed(0x7fffffff))
      .add("ch_intmin", true, fixed(0x80000000ull));

  // --- writable buffer pointer ------------------------------------------------
  auto& t_buf = lib.make("buf");
  t_buf
      .add("buf_64", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(64); })
      .add("buf_page", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(4096); })
      .add("buf_null", true, fixed(0))
      .add("buf_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(64); })
      .add("buf_readonly", true,
           [](ValueCtx& c) { return c.proc.mem().alloc(64, kPermRead); })
      .add("buf_unaligned", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(64) + 1; })
      .add("buf_tail", true,
           [](ValueCtx& c) { return c.proc.mem().alloc(64) + 60; })
      .add("buf_kernel", true, fixed(0xC0001000ull))
      .add("buf_low", true, fixed(0x00000100ull))
      .add("buf_high", true, fixed(0xFFFF0000ull));

  // --- readable buffer pointer ------------------------------------------------
  auto& t_cbuf = lib.make("cbuf");
  t_cbuf
      .add("cbuf_64", false,
           [](ValueCtx& c) {
             std::uint8_t fill[64];
             for (int i = 0; i < 64; ++i)
               fill[i] = static_cast<std::uint8_t>(i);
             const auto a = c.proc.mem().alloc(64);
             c.proc.mem().poke_bytes(a, fill);
             return a;
           })
      .add("cbuf_page", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(4096); })
      .add("cbuf_readonly", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("const-data-0123456789",
                                            kPermRead);
           })
      .add("cbuf_null", true, fixed(0))
      .add("cbuf_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(64); })
      .add("cbuf_unaligned", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(64) + 1; })
      .add("cbuf_tail", true,
           [](ValueCtx& c) { return c.proc.mem().alloc(64) + 60; })
      .add("cbuf_kernel", true, fixed(0xC0001000ull));

  // --- C strings ---------------------------------------------------------------
  auto& t_cstr = lib.make("cstr");
  t_cstr
      .add("str_hello", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("hello"); })
      .add("str_empty", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr(""); })
      .add("str_long", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr(std::string(4096, 'x'));
           })
      .add("str_binary", false,
           [](ValueCtx& c) {
             std::string s = "bin\x01\x7f\x10\x19 data";
             s.push_back('\xfe');
             return c.proc.mem().alloc_cstr(s);
           })
      .add("str_readonly", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("readonly", kPermRead);
           })
      .add("str_null", true, fixed(0))
      .add("str_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(32); })
      .add("str_unterminated", true,
           [](ValueCtx& c) {
             // A full page of 'A' with no NUL; the guard page after it faults
             // any scanner that trusts termination.
             static const std::vector<std::uint8_t> fill(4096, 'A');
             const auto a = c.proc.mem().alloc(4096);
             c.proc.mem().poke_bytes(a, fill);
             return a;
           })
      .add("str_kernel", true, fixed(0xC0002000ull));

  // --- printf-style format strings ---------------------------------------------
  auto& t_fmt = lib.make("fmt", &lib.get("cstr"));
  t_fmt
      .add("fmt_d", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("value=%d"); })
      .add("fmt_s", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("%s"); })
      .add("fmt_many_s", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("%s%s%s%s%s"); })
      .add("fmt_n", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("%n"); })
      .add("fmt_wide", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("%099999d"); })
      .add("fmt_trailing", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("100%"); });

  // --- wide (UTF-16) strings, for the CE UNICODE variants ------------------------
  auto& t_wstr = lib.make("wstr");
  t_wstr
      .add("wstr_hello", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_wstr(u"hello"); })
      .add("wstr_empty", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_wstr(u""); })
      .add("wstr_long", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_wstr(std::u16string(2048, u'x'));
           })
      .add("wstr_digits", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_wstr(u"12345"); })
      .add("wstr_mixed", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_wstr(u"a B c 9 ?"); })
      .add("wstr_null", true, fixed(0))
      .add("wstr_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(64); })
      .add("wstr_odd", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_wstr(u"odd") + 1; })
      .add("wstr_unterminated", true, [](ValueCtx& c) {
        const auto a = c.proc.mem().alloc(4096);
        for (int i = 0; i < 4096; i += 2)
          c.proc.mem().poke_u16(a + i, u'B');
        return a;
      });

  // --- filesystem paths (shared by C stdio, Win32 and POSIX registries) ------
  auto& t_path = lib.make("path", &lib.get("cstr"));
  t_path
      .add("path_fixture", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("/tmp/fixture.dat");
           })
      .add("path_readonly", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("/tmp/readonly.dat");
           })
      .add("path_dir", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("/tmp"); })
      .add("path_missing", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("/tmp/does-not-exist.dat");
           })
      .add("path_deep_missing", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("/no/such/dir/anywhere/file");
           })
      .add("path_root", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("/"); })
      .add("path_dot", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("."); })
      .add("path_backslash", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("C:\\tmp\\fixture.dat");
           })
      .add("path_long", true,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr("/tmp/" + std::string(3000, 'p'));
           })
      .add("path_embedded_ctl", true, [](ValueCtx& c) {
        return c.proc.mem().alloc_cstr("/tmp/bad\x01name");
      });

  auto& t_wpath = lib.make("wpath", &lib.get("wstr"));
  t_wpath
      .add("wpath_fixture", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_wstr(u"/tmp/fixture.dat");
           })
      .add("wpath_missing", false,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_wstr(u"/tmp/does-not-exist.dat");
           })
      .add("wpath_dir", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_wstr(u"/tmp"); })
      .add("wpath_long", true, [](ValueCtx& c) {
        return c.proc.mem().alloc_wstr(u"/tmp/" + std::u16string(3000, u'p'));
      });

}

}  // namespace ballista::core
