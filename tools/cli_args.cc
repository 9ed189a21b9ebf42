#include "tools/cli_args.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <type_traits>

namespace ballista::cli {

namespace {

std::optional<sim::OsVariant> os_from_token(std::string_view s) {
  for (sim::OsVariant v : sim::kAllVariants)
    if (os_token(v) == s) return v;
  return std::nullopt;
}

/// Plain decimal digits that fit in 64 bits, or nullopt: from_chars takes
/// no sign for an unsigned type and reports overflow; nothing may trail.
std::optional<std::uint64_t> parse_decimal(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

/// Reads `text` into the flag's slot; false when the flag's shape rejects
/// it (`why` may then say more).
bool read_value(Args& a, const Flag& f, std::string_view text,
                std::string& why) {
  return std::visit(
      [&](auto member) {
        auto& field = a.*member;
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          field = true;
          return true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          field = text;
          return !text.empty();
        } else if constexpr (std::is_same_v<T, std::optional<sim::OsVariant>>) {
          return (field = os_from_token(text)).has_value();
        } else if constexpr (std::is_same_v<T, std::vector<sim::OsVariant>>) {
          field.clear();
          for (std::size_t start = 0;;) {
            const std::size_t comma = text.find(',', start);
            const auto v = os_from_token(text.substr(start, comma - start));
            if (!v) return false;
            field.push_back(*v);
            if (comma == std::string_view::npos) return true;
            start = comma + 1;
          }
        } else if constexpr (std::is_same_v<T, std::optional<core::ApiKind>>) {
          // "sys" is resolved per OS (Win32 or POSIX) where it is used.
          if (text == "sys") field = core::ApiKind::kWin32Sys;
          if (text == "clib") field = core::ApiKind::kCLib;
          return text == "sys" || text == "clib";
        } else if constexpr (std::is_same_v<T, std::optional<std::uint32_t>>) {
          return (field = core::parse_group_list(text, &why)).has_value();
        } else {  // a number within the flag's bounds
          const auto v = parse_decimal(text);
          if (!v || *v < f.min || *v > f.max) return false;
          field = static_cast<T>(*v);
          return true;
        }
      },
      f.slot);
}

}  // namespace

std::optional<Args> parse_args(int argc, const char* const* argv,
                               std::ostream& err) {
  if (argc < 2) return std::nullopt;
  // Each flag given, with its value (nullopt: the value is missing).
  std::vector<std::pair<const Flag*, std::optional<std::string>>> given;
  std::vector<std::string> operands;
  for (int i = 2; i < argc; ++i) {
    const std::string_view word = argv[i];
    if (!word.starts_with("--")) {
      operands.emplace_back(word);
      continue;
    }
    const Flag* f = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& flag) {
          return word == flag.name ||
                 (flag.bare != 0 && word.starts_with(flag.name) &&
                  word[flag.name.size()] == '=');
        });
    if (f == std::end(kFlags)) {
      err << "unknown flag '" << word << "'\n";
      return std::nullopt;
    }
    auto& value = given.emplace_back(f, std::nullopt).second;
    if (f->bare != 0)
      value = word == f->name ? std::to_string(f->bare)
                              : std::string(word.substr(f->name.size() + 1));
    else if (f->meta.empty())
      value = "";  // a switch
    else if (i + 1 < argc)
      value = argv[++i];
  }
  const auto was_given = [&](std::string_view name) {
    return std::any_of(given.begin(), given.end(),
                       [&](const auto& g) { return g.first->name == name; });
  };

  const CommandSpec* cmd = nullptr;
  for (const CommandSpec& c : kCommands)
    if (c.name == argv[1] &&
        (c.selector.empty() ? cmd == nullptr : was_given(c.selector)))
      cmd = &c;
  if (cmd == nullptr) return std::nullopt;
  const std::string label = std::string(cmd->name) +
                            (cmd->selector.empty() ? "" : " ") +
                            std::string(cmd->selector);
  for (const auto& [f, value] : given) {
    if (!in(f->takes, *cmd)) {
      err << "unexpected argument '" << f->name << "' for " << label << "\n";
      return std::nullopt;
    }
  }
  const std::string_view want = cmd->operands;  // one placeholder each
  const std::size_t wanted =
      want.empty() ? 0 : 1 + static_cast<std::size_t>(
                                 std::count(want.begin(), want.end(), ' '));
  if (operands.size() != wanted) {
    if (wanted == 0)
      err << "unexpected argument '" << operands.front() << "' for " << label;
    else
      err << cmd->name << " takes exactly " << cmd->operand_count;
    err << "\n";
    return std::nullopt;
  }

  Args a;
  a.command = cmd->id;
  a.positional = std::move(operands);
  for (const auto& [f, value] : given) {
    std::string why;
    if (value && read_value(a, *f, *value, why)) continue;
    err << "invalid value " << (value ? "'" + *value + "'" : "(none)")
        << " for " << f->name << (why.empty() ? "" : ": ") << why << "\n";
    return std::nullopt;
  }
  for (const Flag& f : kFlags) {
    if (in(f.required, *cmd) && !was_given(f.name)) {
      err << label << " needs " << f.name << " " << f.meta << "\n";
      return std::nullopt;
    }
  }
  return a;
}

std::string usage_line(const CommandSpec& c) {
  std::string out = "  " + std::string(c.name);
  const auto column = [&] {
    const std::size_t nl = out.rfind('\n');
    return out.size() - (nl == std::string::npos ? 0 : nl + 1);
  };
  const auto add = [&](const std::string& word) {
    out += column() + 1 + word.size() > 78 ? "\n      " : " ";
    out += word;
  };
  if (!c.operands.empty()) add(std::string(c.operands));
  for (const bool required : {true, false}) {
    for (const Flag& f : kFlags) {
      if (!in(f.takes, c) || in(f.required, c) != required) continue;
      std::string word(f.name);
      if (f.bare != 0)
        word.append("[=").append(f.meta).append("]");
      else if (!f.meta.empty())
        word.append(" ").append(f.meta);
      add(required ? word : "[" + word + "]");
    }
  }
  if (column() + 2 > 43) out += "\n";
  out.append(43 - column(), ' ');
  return out.append(c.summary).append("\n");
}

int usage() {
  std::cerr << "usage: ballista_cli <command> [flags]\n";
  for (const CommandSpec& c : kCommands) std::cerr << usage_line(c);
  std::cerr << "OS names:";
  for (const std::string_view os : kOsTokens) std::cerr << " " << os;
  std::cerr << "\n" <<
      "--groups LIST restricts a run to comma-separated group tokens (see\n"
      "`list-groups`; 'all' = every group including growth groups).  The\n"
      "default campaign covers the paper's twelve groups only.\n"
      "--jobs N (at most 256) runs each campaign on N worker machines;\n"
      "results are identical for every N (deterministic sharded engine).\n"
      "--trace[=N] dumps the causal event chain behind each Catastrophic\n"
      "failure; --event-counters prints per-variant kernel-event totals.\n"
      "--store appends each completed shard to a crash-safe log; --resume\n"
      "recovers such a log and re-runs only the missing shards; --baseline\n"
      "diffs the run against an earlier log and exits 3 on any drift.\n"
      "Store flags require a single --os.  See README.md for details.\n"
      "--crash-points[=N] runs a crash-enumeration campaign instead of a\n"
      "robustness campaign: each case's persistence points are counted, then\n"
      "up to N cuts per case are injected and post-reboot consistency is\n"
      "verified.  Its --groups defaults to filedir,memory.  repro --cut K\n"
      "replays one (MuT, case, k) cut standalone; repro --mut accepts\n"
      "group:Name.\n"
      "`serve` multiplexes one campaign session per --sessions OS token over\n"
      "a shared machine pool; with --log-dir each session streams into its\n"
      "own .blog.  --detach-at K parks the first session after K streamed\n"
      "shards and reattaches it once the others finish; --halt-at K parks it\n"
      "and exits, leaving the partial log for a later `attach`.  Both ends of\n"
      "a resume must agree on cap/seed/--shard-cases (the fingerprint).\n";
  return 2;
}

}  // namespace ballista::cli
