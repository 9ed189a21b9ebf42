// On-disk format of the persistent campaign log (.blog).
//
// Layout:
//
//   [u32 magic "BLOG"][u32 format version]
//   frame: kRunHeader     — campaign fingerprint + plan geometry
//   frame: kShardOutcome  — one per completed shard, appended (and flushed)
//                           in *completion* order as workers finish
//   ...
//   frame: kRunComplete   — merged totals, written once the campaign ends
//
// Every frame is the CRC-guarded envelope of common/wire.h
// ([type][len][payload][crc32]), so the reader can always recover the longest
// valid prefix of a torn or bit-flipped log: a truncated tail is a clean
// resume point, never UB.  All integers are little-endian; strings are
// u64-length-prefixed — the same dialect the RPC shard messages use.
//
// The RunHeader is the resume safety interlock.  A log may only be replayed
// into a campaign whose *fingerprint* — OS variant, filtered MuT list, value
// pools, and the plan parameters that shape shard boundaries — is identical
// to the run that wrote it; otherwise shard indices would silently refer to
// different work.  The MuT-list and value-pool hashes are FNV-1a over the
// registry entries the plan actually selected, so any registry edit, hazard
// change or pool change invalidates old logs loudly instead of mis-merging.
#pragma once

#include <cstdint>
#include <string>

#include "core/campaign.h"
#include "core/crashplan.h"
#include "core/registry.h"

namespace ballista::store {

inline constexpr std::uint32_t kMagic = 0x474F4C42;  // "BLOG" little-endian
inline constexpr std::uint32_t kFormatVersion = 1;

enum class RecordType : std::uint8_t {
  kRunHeader = 1,
  kShardOutcome = 2,
  kRunComplete = 3,
  kCrashOutcome = 4,  // crash-enumeration shard (header.crash_mode == 1)
};

/// Campaign fingerprint + plan geometry.  Two runs with equal RunHeaders
/// execute bit-identical work (for any --jobs), which is what makes shard
/// records from one log mergeable into the other's plan.
struct RunHeader {
  std::uint8_t variant = 0;  // sim::OsVariant
  std::uint64_t mut_list_hash = 0;
  std::uint64_t value_pool_hash = 0;
  std::uint64_t cap = 0;
  std::uint64_t seed = 0;
  std::uint8_t has_only_api = 0;
  std::uint8_t only_api = 0;  // core::ApiKind when has_only_api
  /// Fixed by the log's flavour: 1 in robustness logs (case codes and the
  /// repro pass are unconditional), 0 in crash logs.
  std::uint8_t record_cases = 1;
  std::uint8_t repro_pass = 1;
  std::uint64_t shard_cases = 0;
  std::uint64_t plan_shards = 0;
  std::uint64_t total_planned = 0;
  /// Optional tails.  Base campaigns leave both tails absent, so their
  /// headers (and logs) stay byte-identical to format version 1 before
  /// either existed; the decoder treats an absent tail as all-zero.  Each
  /// tail is tagged by its leading byte — 1 = crash-enumeration tail,
  /// 2 = group-filter tail — and tails appear in tag order, so every
  /// header has exactly one encoding.  Any other tag is refused.
  std::uint8_t crash_mode = 0;  // 1 = crash-enumeration campaign
  std::uint64_t crash_max_cuts = 0;
  std::uint32_t crash_group_mask = 0;  // bitmask over core::FuncGroup ids
  /// Group-filter tail (tag 2): set when the campaign ran with an explicit
  /// --groups mask instead of the registry's default-campaign groups.
  std::uint8_t has_group_filter = 0;
  std::uint32_t group_mask = 0;  // bitmask over core::FuncGroup wire ids

  friend bool operator==(const RunHeader& a, const RunHeader& b) noexcept {
    return a.variant == b.variant && a.mut_list_hash == b.mut_list_hash &&
           a.value_pool_hash == b.value_pool_hash && a.cap == b.cap &&
           a.seed == b.seed && a.has_only_api == b.has_only_api &&
           a.only_api == b.only_api && a.record_cases == b.record_cases &&
           a.repro_pass == b.repro_pass && a.shard_cases == b.shard_cases &&
           a.plan_shards == b.plan_shards &&
           a.total_planned == b.total_planned &&
           a.crash_mode == b.crash_mode &&
           a.crash_max_cuts == b.crash_max_cuts &&
           a.crash_group_mask == b.crash_group_mask &&
           a.has_group_filter == b.has_group_filter &&
           a.group_mask == b.group_mask;
  }
  friend bool operator!=(const RunHeader& a, const RunHeader& b) noexcept {
    return !(a == b);
  }
};

/// FNV-1a over the plan's MuT list: names, API kind, group, parameter type
/// names, per-variant hazard style and the CE twin wiring.
std::uint64_t mut_list_hash(const core::Plan& plan);

/// FNV-1a over every value pool the plan's MuTs draw from: type names, value
/// names and exceptional flags, in pool order.
std::uint64_t value_pool_hash(const core::Plan& plan);

/// The header Campaign::run with `opt` would stamp on `plan`.  Requires
/// opt.machine_setup/task_setup to be unset — ambient-state hooks cannot be
/// fingerprinted, so such campaigns are not storable.
RunHeader make_run_header(const core::Plan& plan,
                          const core::CampaignOptions& opt);
/// The header a crash-enumeration campaign stamps on the plan crash_plan_for
/// derives from `opt`: crash_mode 1, record_cases and repro_pass 0.
RunHeader make_run_header(const core::Plan& plan, const core::CrashOptions& opt);

/// Human-readable field-by-field mismatch report for resume errors.
std::string describe_header_mismatch(const RunHeader& want,
                                     const RunHeader& got);

}  // namespace ballista::store
