// ballista_cli's argv surface, swept from its own flag and command tables:
// for every command, each flag it does not take is a usage error, each value
// flag it takes rejects a missing or empty value, each numeric flag rejects a
// sign, trailing text, an overflow and a value outside its bounds and takes
// the bounds themselves, and the usage line lists exactly the flags it
// takes.  Only the parser runs: no campaign, no thread.
#include "tools/cli_args.h"

#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <sstream>

namespace ballista::cli {
namespace {

struct Parsed {
  std::optional<Args> args;
  std::string err;
};

Parsed parse(const std::vector<std::string>& words) {
  std::vector<const char*> argv{"ballista_cli"};
  for (const std::string& w : words) argv.push_back(w.c_str());
  std::ostringstream err;
  auto args = parse_args(static_cast<int>(argv.size()), argv.data(), err);
  return {std::move(args), err.str()};
}

/// The words that pick row `c`: its name, then its selector flag if any.
std::vector<std::string> command_words(const CommandSpec& c) {
  std::vector<std::string> words{std::string(c.name)};
  if (!c.selector.empty()) words.emplace_back(c.selector);
  return words;
}

/// Appends the words that give flag `f` the value `v`.
std::vector<std::string> with(std::vector<std::string> words, const Flag& f,
                              const std::string& v) {
  if (f.bare != 0) {
    words.push_back(std::string(f.name) + "=" + v);
  } else {
    words.emplace_back(f.name);
    words.push_back(v);
  }
  return words;
}

bool is_switch(const Flag& f) {
  return std::holds_alternative<bool Args::*>(f.slot);
}

bool is_number(const Flag& f) {
  return std::holds_alternative<unsigned Args::*>(f.slot) ||
         std::holds_alternative<std::uint64_t Args::*>(f.slot) ||
         std::holds_alternative<std::optional<std::uint64_t> Args::*>(f.slot);
}

/// The number a numeric flag's slot holds.
std::uint64_t number_in(const Args& a, const Flag& f) {
  return std::visit(
      [&](auto member) -> std::uint64_t {
        const auto& field = a.*member;
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::optional<std::uint64_t>>)
          return field.value_or(0);
        else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
          return field;
        else
          return 0;
      },
      f.slot);
}

/// Giving `f` to the plain row of `c`'s name picks a sibling row instead.
bool selects_sibling(const Flag& f, const CommandSpec& c) {
  for (const CommandSpec& other : kCommands)
    if (&other != &c && other.name == c.name && other.selector == f.name)
      return true;
  return false;
}

std::string joined(const std::vector<std::string>& words) {
  std::string s;
  for (const std::string& w : words) s += " '" + w + "'";
  return s;
}

void expect_usage_error(const std::vector<std::string>& words,
                        const std::string& phrase) {
  const Parsed p = parse(words);
  EXPECT_FALSE(p.args.has_value()) << joined(words);
  EXPECT_NE(p.err.find(phrase), std::string::npos)
      << joined(words) << " printed: " << p.err;
}

TEST(CliArgs, EveryCommandRejectsEachFlagItDoesNotTake) {
  for (const CommandSpec& c : kCommands) {
    for (const Flag& f : kFlags) {
      if (in(f.takes, c) || selects_sibling(f, c)) continue;
      std::vector<std::string> words = command_words(c);
      words.emplace_back(f.name);
      expect_usage_error(words,
                         "unexpected argument '" + std::string(f.name) + "'");
    }
  }
}

TEST(CliArgs, EveryValueFlagRejectsAMissingOrEmptyValue) {
  for (const CommandSpec& c : kCommands) {
    for (const Flag& f : kFlags) {
      if (!in(f.takes, c) || is_switch(f)) continue;
      const std::string name(f.name);
      if (f.bare == 0) {  // --name[=N] stands alone; the rest need a value
        std::vector<std::string> words = command_words(c);
        words.push_back(name);
        expect_usage_error(words, "invalid value (none) for " + name);
      }
      expect_usage_error(with(command_words(c), f, ""),
                         "invalid value '' for " + name);
    }
  }
}

TEST(CliArgs, EveryNumericFlagTakesOnlyDecimalsWithinItsBounds) {
  for (const CommandSpec& c : kCommands) {
    for (const Flag& f : kFlags) {
      if (!in(f.takes, c) || !is_number(f)) continue;
      std::vector<std::string> bad = {"-1", "+1",
                                      std::to_string(f.min) + "x",
                                      "18446744073709551616"};
      if (f.min > 0) bad.push_back(std::to_string(f.min - 1));
      if (f.max < kNoMax) bad.push_back(std::to_string(f.max + 1));
      for (const std::string& v : bad)
        expect_usage_error(with(command_words(c), f, v),
                           "invalid value '" + v + "' for " +
                               std::string(f.name));
    }
  }
}

TEST(CliArgs, EveryNumericFlagTakesItsBounds) {
  for (const CommandSpec& c : kCommands) {
    // The command's operands and required flags, with a value each shape
    // takes.
    std::vector<std::string> base = command_words(c);
    std::istringstream operands{std::string(c.operands)};
    for (std::string w; operands >> w;) base.push_back(w);
    for (const Flag& r : kFlags) {
      if (!in(r.required, c) || r.name == c.selector) continue;
      const bool os_shaped =
          std::holds_alternative<std::optional<sim::OsVariant> Args::*>(
              r.slot) ||
          std::holds_alternative<std::vector<sim::OsVariant> Args::*>(r.slot);
      const std::string_view value =
          os_shaped ? os_token(sim::OsVariant::kWinNT4) : "x";
      base = with(base, r, std::string(value));
    }
    ASSERT_TRUE(parse(base).args.has_value()) << joined(base);
    for (const Flag& f : kFlags) {
      if (!in(f.takes, c) || !is_number(f)) continue;
      for (const std::uint64_t v : {f.min, f.max}) {
        const auto words = with(base, f, std::to_string(v));
        const Parsed p = parse(words);
        ASSERT_TRUE(p.args.has_value()) << joined(words) << ": " << p.err;
        EXPECT_EQ(number_in(*p.args, f), v) << joined(words);
      }
    }
  }
}

TEST(CliArgs, UsageLineListsExactlyTheFlagsTheCommandTakes) {
  const std::regex flag("--[a-z-]+");
  for (const CommandSpec& c : kCommands) {
    const std::string line = usage_line(c);
    std::set<std::string> listed, taken;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), flag);
         it != std::sregex_iterator(); ++it)
      listed.insert(it->str());
    for (const Flag& f : kFlags)
      if (in(f.takes, c)) taken.emplace(f.name);
    EXPECT_EQ(listed, taken) << line;
  }
}

}  // namespace
}  // namespace ballista::cli
