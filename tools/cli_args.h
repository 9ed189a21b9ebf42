// Command-line grammar of ballista_cli: every flag and command it knows, as
// two tables, and the parser and usage text derived from them.  The flag
// table says what each flag's value is and which commands take it; the
// command table gives each command's name, operands and summary.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/generator.h"
#include "core/groups.h"
#include "sim/personality.h"

namespace ballista::cli {

/// The OS names the CLI takes and prints, indexed by sim::OsVariant.
inline constexpr std::array<std::string_view, sim::kAllVariants.size()>
    kOsTokens = {"win95",   "win98", "win98se", "nt4",
                 "win2000", "wince", "linux"};

inline std::string_view os_token(sim::OsVariant v) {
  return kOsTokens[static_cast<std::size_t>(v)];
}

/// The commands.  A crash-enumeration run (`run --crash-points`) is a
/// command of its own: it takes the run flags that shape a crash campaign,
/// none of those that shape or report a robustness one.
enum class Command : std::uint8_t {
  kListMuts, kListTypes, kListGroups, kRun, kRunCrash, kServe, kAttach,
  kRepro, kCrashes, kTables, kDiff, kStats,
};
using enum Command;

/// A set of commands, one bit per Command.
using Commands = std::uint32_t;

template <class... C>
constexpr Commands commands(C... c) {
  return ((Commands{1} << static_cast<unsigned>(c)) | ...);
}

struct Args {
  Command command{};
  std::optional<sim::OsVariant> os;
  std::optional<core::ApiKind> api;
  std::uint64_t cap = core::kDefaultCap;
  std::uint64_t seed = 0x8a11157a;
  std::string mut;
  std::uint64_t case_index = 0;
  /// --groups mask; unset = each campaign flavour's default groups.
  std::optional<std::uint32_t> groups;
  std::string mut_csv, value_csv;
  bool analyze = false;
  unsigned jobs = 1;
  std::optional<std::uint64_t> crash_points;
  std::uint64_t cut = 0;  // 0: no cut
  std::optional<std::uint64_t> trace_events;
  bool event_counters = false;
  std::string store, resume, baseline;
  std::vector<sim::OsVariant> sessions;
  std::string log_dir;
  std::uint64_t quota = 2;
  std::optional<std::uint64_t> detach_at, halt_at;
  bool wire_trace = false;
  std::uint64_t shard_cases = 2048;
  /// Operands: the .blog files diff and stats read.
  std::vector<std::string> positional;
};

/// Where a flag's value lands.  The member's type also says how the text is
/// read: a switch takes none; a number is plain decimal digits within the
/// flag's bounds; a string is any non-empty text; the rest are an OS name, a
/// comma-separated list of them, `sys|clib`, or a `--groups` list
/// (core::parse_group_list).
using Slot = std::variant<bool Args::*, unsigned Args::*, std::uint64_t Args::*,
                          std::optional<std::uint64_t> Args::*,
                          std::string Args::*,
                          std::optional<sim::OsVariant> Args::*,
                          std::vector<sim::OsVariant> Args::*,
                          std::optional<core::ApiKind> Args::*,
                          std::optional<std::uint32_t> Args::*>;

inline constexpr Commands kNone = 0;
inline constexpr std::uint64_t kNoMax =
    std::numeric_limits<std::uint64_t>::max();

struct Flag {
  std::string_view name;
  std::string_view meta;  // the value's placeholder; empty for a switch
  Slot slot;
  Commands takes = kNone;
  Commands required = kNone;  // commands that refuse to run without it
  std::uint64_t min = 0, max = kNoMax;
  /// Nonzero for a flag written --name[=N]: the value bare --name stands for.
  std::uint64_t bare = 0;
};

inline constexpr Commands kRuns = commands(kRun, kRunCrash);
/// The commands that run campaign cases.
inline constexpr Commands kCases =
    kRuns | commands(kServe, kAttach, kRepro, kCrashes, kTables);

/// Every flag, in usage order: name, placeholder, slot, the commands that
/// take it and those that require it, then a number's bounds and bare value.
inline constexpr Flag kFlags[] = {
    {"--os", "NAME", &Args::os,
     kRuns | commands(kListMuts, kListGroups, kAttach, kRepro, kCrashes),
     commands(kAttach, kRepro)},
    {"--sessions", "LIST", &Args::sessions, commands(kServe),
     commands(kServe)},
    {"--mut", "NAME", &Args::mut, commands(kRepro), commands(kRepro)},
    {"--case", "I", &Args::case_index, commands(kRepro)},
    {"--crash-points", "N", &Args::crash_points, commands(kRunCrash),
     commands(kRunCrash), 1, kNoMax, 16},
    {"--cap", "N", &Args::cap, kCases, kNone, 1},
    {"--seed", "S", &Args::seed, kCases},
    {"--api", "sys|clib", &Args::api, commands(kListMuts, kRun)},
    // A job is a thread with a machine of its own, and serve and attach
    // size their machine pool by it up front; nothing needs more than 256.
    {"--jobs", "N", &Args::jobs, kCases & ~commands(kRepro), kNone, 1, 256},
    {"--quota", "N", &Args::quota, commands(kServe, kAttach), kNone, 1},
    {"--shard-cases", "N", &Args::shard_cases,
     kRuns | commands(kServe, kAttach), kNone, 1},
    {"--groups", "LIST", &Args::groups, kRuns},
    {"--mut-csv", "F", &Args::mut_csv, commands(kRun)},
    {"--value-csv", "F", &Args::value_csv, commands(kRun)},
    {"--analyze", "", &Args::analyze, commands(kRun)},
    {"--trace", "N", &Args::trace_events, commands(kRun, kRepro, kCrashes),
     kNone, 1, kNoMax, 16},
    {"--event-counters", "", &Args::event_counters,
     commands(kRun, kRepro, kCrashes)},
    {"--cut", "K", &Args::cut, commands(kRepro), kNone, 1},
    {"--store", "F.blog", &Args::store, kRuns},
    {"--resume", "F.blog", &Args::resume, kRuns},
    {"--baseline", "F.blog", &Args::baseline, kRuns},
    {"--log-dir", "D", &Args::log_dir, commands(kServe, kAttach),
     commands(kAttach)},
    {"--detach-at", "K", &Args::detach_at, commands(kServe), kNone, 1},
    {"--halt-at", "K", &Args::halt_at, commands(kServe), kNone, 1},
    {"--wire-trace", "", &Args::wire_trace, commands(kServe, kAttach)},
};

struct CommandSpec {
  Command id;
  std::string_view name;
  /// A flag whose presence picks this row over the plain one of its name.
  std::string_view selector;
  /// The operands' placeholders, and how many of them, in words.
  std::string_view operands, operand_count;
  std::string_view summary;
};

inline constexpr CommandSpec kCommands[] = {
    {kListMuts, "list-muts", "", "", "", "catalog of modules under test"},
    {kListTypes, "list-types", "", "", "", "data types and value pools"},
    {kListGroups, "list-groups", "", "", "", "functional-group registry"},
    {kRun, "run", "", "", "", "robustness campaign (Table 1)"},
    {kRunCrash, "run", "--crash-points", "", "", "crash-enumeration campaign"},
    {kServe, "serve", "", "", "", "multi-session campaign server"},
    {kAttach, "attach", "", "", "", "reattach a parked campaign"},
    {kRepro, "repro", "", "", "", "single-test reproduction"},
    {kCrashes, "crashes", "", "", "", "Catastrophic function lists"},
    {kTables, "tables", "", "", "", "all paper tables and figures"},
    {kDiff, "diff", "", "BASELINE.blog NEW.blog", "two .blog files",
     "cross-run regression diff"},
    {kStats, "stats", "", "FILE.blog", "one .blog file",
     "sealed-log summary and worst MuTs"},
};

inline bool in(Commands set, const CommandSpec& c) {
  return (set & commands(c.id)) != 0;
}

/// Parses argv against the two tables: the command, the flags it takes with
/// their values, and its operands.  On a usage error, says what is wrong on
/// `err` and returns nullopt.  A flag or operand the command does not take
/// is an error, not ignored: ignoring it would hide typos such as
/// `repro --store x.blog` or `run nt4`.
std::optional<Args> parse_args(int argc, const char* const* argv,
                               std::ostream& err);

/// One command's usage line: its operands and flags, the flags it requires
/// first, wrapped at 78 columns, then its summary at column 43.
std::string usage_line(const CommandSpec& c);

/// Prints the usage text to stderr; returns 2, the usage-error exit code.
int usage();

}  // namespace ballista::cli
