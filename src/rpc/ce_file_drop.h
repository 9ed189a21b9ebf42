// Windows CE's arrangement of the split harness (§3.2).  CE had no ONC RPC,
// so the NT host drove the target over a serial link: the client on the
// target runs a case and drops the result into a file on the target's
// filesystem, and the host polls for the file, reads it and deletes it.
// "Unfortunately this means tests are several orders of magnitude slower" —
// modeled as extra simulated clock ticks per case.  The arrangement never
// used the RPC channel, so it speaks no wire frames: the host names the case
// by (MuT name, case index) directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/campaign.h"

namespace ballista::rpc {

/// CE-style client: identical execution, but results travel through the
/// simulated target filesystem instead of a message channel.
class CeFileDropClient {
 public:
  CeFileDropClient(sim::Machine& target, const core::Registry& registry,
                   std::uint64_t cap, std::uint64_t seed);

  /// Runs case `case_index` of `mut_name` and drops
  /// "/tmp/ballista_result.txt" onto the target.  Returns false if the
  /// machine is down (caller must reboot it).
  bool execute(const std::string& mut_name, std::uint64_t case_index);

  static constexpr std::string_view kResultFile = "ballista_result.txt";

 private:
  sim::Machine& target_;
  const core::Registry& registry_;
  std::uint64_t cap_;
  std::uint64_t seed_;
};

/// The NT-side host loop for the CE arrangement: generates cases, asks the
/// file-drop client to execute each, waits for the result file to appear on
/// the target (a missing file after a case means the machine went down),
/// reads and deletes it, and aggregates — reproducing §3.2's protocol.
core::CampaignResult run_ce_file_drop_campaign(
    const core::Registry& registry, std::uint64_t cap = core::kDefaultCap,
    std::uint64_t seed = 0x8a11157a);

}  // namespace ballista::rpc
