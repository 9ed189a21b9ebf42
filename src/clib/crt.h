// C runtime personalities: Msvcrt (desktop Windows), Glibc (Linux), CeCrt
// (Windows CE, stdio thunked into the kernel).
//
// All CRT state lives in *simulated* memory: FILE structures, the ctype
// classification table, stdio buffers.  This is what lets the paper's
// C-library findings emerge mechanically:
//   - glibc's ctype table is a raw table lookup — out-of-range ints walk off
//     the table into a guard page (>30% Abort on "C char" for Linux), while
//     the MSVC CRT bounds-checks first (0% for all Windows variants);
//   - glibc trusts FILE* and chases the stream's internal pointers (Abort),
//     MSVC validates against its _iob region (error return), and CE resolves
//     them in kernel context (Catastrophic — seventeen functions, one bad
//     file pointer, §5);
//   - string/memory functions dereference raw pointers identically everywhere,
//     so their Abort rates are similar across all seven systems.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/execctx.h"
#include "core/typelib.h"
#include "sim/kobject.h"
#include "sim/process.h"

namespace ballista::clib {

using core::CallContext;
using core::CallOutcome;
using core::MemStatus;
using sim::Addr;

// Simulated FILE structure layout (32 bytes).
inline constexpr std::uint32_t kFileMagic = 0x454C4946;  // 'FILE'
inline constexpr Addr kFileOffMagic = 0;
inline constexpr Addr kFileOffHandle = 4;
inline constexpr Addr kFileOffFlags = 8;
inline constexpr Addr kFileOffBuf = 12;
inline constexpr Addr kFileOffLock = 16;
inline constexpr Addr kFileOffUnget = 20;
inline constexpr Addr kFileOffPos = 24;
inline constexpr std::uint64_t kFileStructSize = 32;

// FILE flags.
inline constexpr std::uint32_t kFRead = 1;
inline constexpr std::uint32_t kFWrite = 2;
inline constexpr std::uint32_t kFEof = 4;
inline constexpr std::uint32_t kFErr = 8;
inline constexpr std::uint32_t kFOpen = 16;

// ctype classification bits stored in the simulated table.
inline constexpr std::uint8_t kCtUpper = 0x01;
inline constexpr std::uint8_t kCtLower = 0x02;
inline constexpr std::uint8_t kCtDigit = 0x04;
inline constexpr std::uint8_t kCtSpace = 0x08;
inline constexpr std::uint8_t kCtPunct = 0x10;
inline constexpr std::uint8_t kCtCntrl = 0x20;
inline constexpr std::uint8_t kCtHex = 0x40;
inline constexpr std::uint8_t kCtPrint = 0x80;

/// Per-process CRT state, attached to SimProcess lazily.
struct CrtState {
  /// glibc-style classification table covering c in [-128, 255]; deliberately
  /// allocated flush against the end of its page so any larger index lands in
  /// the guard page, exactly like walking off the real table.
  Addr ctype_table = 0;
  /// Region legitimate FILE structures live in (the MSVC "_iob" range check).
  Addr iob_base = 0;
  Addr iob_end = 0;
  Addr iob_next = 0;
  Addr file_stdin = 0;
  Addr file_stdout = 0;
  Addr file_stderr = 0;
  /// strtok's hidden continuation pointer.
  Addr strtok_next = 0;
  /// Static result buffers (asctime/ctime, tmpnam, gmtime/localtime).
  Addr static_str = 0;
  Addr static_tm = 0;
};

/// Gets (or builds) the CRT state for the current task.  Setup-time accesses
/// go through kernel mode (no policy involved).  Built from inside a module
/// under test, its maps, stores and handle inserts announce persistence
/// points like any others, so an armed cut can kill the machine part-way:
/// then it returns null and the caller passes the panic up.
CrtState* crt_state(sim::SimProcess& proc);
/// crt_state for test-value constructors, which run outside the module
/// window where nothing announces (a cut there is a harness bug).
CrtState& harness_crt_state(sim::SimProcess& proc);

/// Result of resolving a FILE* argument under the active CRT personality.
/// Resolving may stop the call: a fault (glibc/msvcrt chasing garbage in user
/// mode, or a CE thunk under the raise policy; recorded on the context) or a
/// panic (CE kernel thunks under a hazard, or an armed cut in CRT set-up).
struct FileRef {
  enum class Status {
    kOk,
    kBadf,     // detected invalid: fail with errno (robust)
    kSilent,   // swallowed by a loose path: report success, do nothing
    kStopped,  // resolving it stopped the call: the call ends stopped
  };
  Status status = Status::kBadf;
  Addr fp = 0;
  std::shared_ptr<sim::FileObject> obj;  // null for detected-bad streams
  std::uint32_t flags = 0;

  /// The outcome of a call whose stream did not resolve: stopped when
  /// resolving was, else the error return `ret`.
  CallOutcome fail(std::uint64_t ret) const {
    if (status == Status::kStopped) return core::stopped();
    return core::error_reported(ret);
  }
};

/// `needs_kernel_guard` marks CE functions that pre-validate (the rewind
/// quirk: CE checked the pointer before thunking, so it aborts rather than
/// crashing).
FileRef resolve_file(CallContext& ctx, Addr fp, bool ce_prevalidates = false);

/// Writes a fresh FILE structure bound to `node` and returns its address (0
/// when the _iob region is full); kDown when the machine died doing so (an
/// armed cut, as for crt_state).
sim::Survived<Addr> make_file_struct(sim::SimProcess& proc,
                                     std::shared_ptr<sim::FsNode> node,
                                     std::uint32_t flags);

/// Reads/writes one FILE field honoring the personality (user-mode for
/// desktop CRTs, kernel thunk for CE).  kOk or kStopped; a
/// CE field the kernel rejects or swallows reads as zero and ignores the
/// write.
MemStatus file_field_read(CallContext& ctx, Addr fp, Addr off,
                          std::uint32_t* v);
MemStatus file_field_write(CallContext& ctx, Addr fp, Addr off,
                           std::uint32_t v);

/// Character width abstraction so ASCII and UNICODE (CE) variants share
/// implementations.  User-mode accesses: the caller raises their fault.
struct CharWidth {
  int bytes = 1;  // 1 = char, 2 = wchar (UTF-16)
  sim::MaybeFault get(CallContext& ctx, Addr a, std::uint64_t i,
                      std::uint32_t* c) const;
  sim::MaybeFault put(CallContext& ctx, Addr a, std::uint64_t i,
                      std::uint32_t c) const;
};
inline constexpr CharWidth kNarrow{1};
inline constexpr CharWidth kWide{2};

/// Reads [a, a+n) in user mode into `out`, grown one page segment at a
/// time, so a read that faults after its first page costs one page, not n
/// zero-filled bytes.  Returns the fault exactly where one read_bytes over
/// the whole range would.
sim::MaybeFault gather_bytes(sim::AddressSpace& mem, Addr a, std::uint64_t n,
                             std::vector<std::uint8_t>* out);

/// Page-buffered sequential character reader.  Access checks are
/// page-granular, so buffering the page a character lands in (loaded lazily,
/// the first time the scan touches it) faults at exactly the address and
/// point in the scan the per-character walk faulted at, while costing one
/// page-table lookup per page instead of one per character.  A hit in the
/// buffered page is inline; loading the next page is out of line.  The
/// buffer is a snapshot: a store through the scanned range is not seen by a
/// page already buffered, so a copy whose destination overlaps its source
/// (dst = src + 1) reads the source as it was when its page was loaded.
class CharScanner {
 public:
  CharScanner(CallContext& ctx, Addr base, CharWidth w)
      : ctx_(ctx), base_(base), bytes_(w.bytes), w_(w) {}

  /// Stores the character at index i (byte or UTF-16 code unit) in `*c`, or
  /// returns the fault reading it.  Scans must touch indices in
  /// non-decreasing page order to preserve fault timing.
  sim::MaybeFault at(std::uint64_t i, std::uint32_t* c) {
    const Addr a = base_ + static_cast<Addr>(i) * static_cast<Addr>(bytes_);
    if (a < seg_start_ || a + static_cast<Addr>(bytes_) > seg_end_)
      return load(i, c);
    *c = buffered(a);
    return {};
  }

 private:
  /// at() for a character outside the buffered segment.
  sim::MaybeFault load(std::uint64_t i, std::uint32_t* c);
  std::uint32_t buffered(Addr a) const {
    const std::size_t off = static_cast<std::size_t>(a - seg_start_);
    return bytes_ == 1
               ? buf_[off]
               : static_cast<std::uint32_t>(buf_[off] | (buf_[off + 1] << 8));
  }

  CallContext& ctx_;
  Addr base_;
  int bytes_;
  CharWidth w_;
  std::uint8_t buf_[4096];
  Addr seg_start_ = 1, seg_end_ = 0;  // [start, end) byte range buf_ covers
};

/// Sequential character writer, CharScanner's counterpart for stores.
/// Narrow characters go through one sim::AddressSpace::StoreRun, so a copy
/// loop pays one access check and one kPageWrite announcement per page
/// instead of one write_u8 call chain per character, with the same faults,
/// bytes and persistence points.  Wide (UTF-16) characters keep CharWidth::put, so
/// strict-alignment faults and page-straddling code units are unchanged.
/// The run contract is the caller's: between two put() calls nothing may
/// announce or store (CharScanner reads are fine).
class CharWriter {
 public:
  CharWriter(CallContext& ctx, Addr base, CharWidth w)
      : ctx_(ctx), base_(base), w_(w), run_(ctx.proc().mem()) {}

  /// Stores character c at index i, or returns the fault storing it.
  sim::MaybeFault put(std::uint64_t i, std::uint32_t c) {
    if (w_.bytes != 1) return w_.put(ctx_, base_, i, c);
    return run_.put(base_ + i, static_cast<std::uint8_t>(c));
  }

 private:
  CallContext& ctx_;
  Addr base_;
  CharWidth w_;
  sim::AddressSpace::StoreRun run_;
};

/// Registers the "cfile" data type (valid / closed / NULL / dangling /
/// string-buffer-cast / garbage-struct FILE pointers) plus clib-specific
/// types, then all 94 C-library MuTs (and the 26 CE UNICODE twins).
void register_clib(core::TypeLibrary& lib, core::Registry& reg);

// Per-family registration (called by register_clib; exposed for tests).
void register_clib_types(core::TypeLibrary& lib);
void register_char_fns(core::TypeLibrary& lib, core::Registry& reg);
void register_string_fns(core::TypeLibrary& lib, core::Registry& reg);
void register_memory_fns(core::TypeLibrary& lib, core::Registry& reg);
void register_stdio_file_fns(core::TypeLibrary& lib, core::Registry& reg);
void register_stream_fns(core::TypeLibrary& lib, core::Registry& reg);
void register_math_fns(core::TypeLibrary& lib, core::Registry& reg);
void register_time_fns(core::TypeLibrary& lib, core::Registry& reg);

/// CE-excluded C functions (beyond the C time group): strtod, atol, sscanf
/// and their context; mask helpers.
std::uint8_t clib_mask_all();
std::uint8_t clib_mask_no_ce();

}  // namespace ballista::clib
