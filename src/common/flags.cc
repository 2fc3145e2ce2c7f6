#include "common/flags.h"

#include <algorithm>
#include <optional>

#include "common/str.h"

namespace stemroot {

namespace {

/// Throws FlagError unless `value` is a well-formed value of `spec`.
/// ParseDouble (from_chars), not std::stod: stod reads the global
/// locale's decimal point, so "1.5" would parse as 1 under a
/// comma-decimal locale.
void CheckValue(const FlagSpec& spec, const std::string& value) {
  const std::string flag = "Flags: --" + spec.name;
  const std::string got = ", got '" + value + "'";
  const std::optional<uint64_t> count = ParseUint(value);
  if (spec.kind == FlagKind::kUint && (!count || *count > spec.max))
    throw FlagError(flag + " expects an integer in [0, " +
                    std::to_string(spec.max) + "]" + got);
  if (spec.kind == FlagKind::kDouble && !ParseDouble(value))
    throw FlagError(flag + " expects a number" + got);
  if (spec.kind == FlagKind::kBool && value != "true" && value != "false" &&
      value != "1" && value != "0")
    throw FlagError(flag + " expects true/false" + got);
}

bool IsFlagWord(const std::string& word) {
  return StartsWith(word, "--") || word == "-h";
}

/// The help text's stand-in for a value without a default, by kind.
const char* Placeholder(FlagKind kind) {
  static constexpr const char* kNames[] = {"N",   "X",   "BOOL",
                                           "STR", "A,B", "FILE"};
  return kNames[static_cast<int>(kind)];
}

}  // namespace

FlagSpec Required(FlagSpec spec) {
  spec.required = true;
  return spec;
}

const FlagSpec* FindFlag(const std::vector<FlagSpec>& table,
                         const std::string& name) {
  for (const FlagSpec& spec : table)
    if (spec.name == name) return &spec;
  return nullptr;
}

Flags Flags::Parse(int argc, const char* const* argv,
                   std::vector<FlagSpec> table, size_t max_positional) {
  Flags flags;
  flags.table_ = std::move(table);
  int i = 0;
  while (i < argc && !IsFlagWord(argv[i]))
    flags.positional_.emplace_back(argv[i++]);
  if (flags.positional_.size() > max_positional)
    throw FlagError("Flags: unexpected argument '" +
                    flags.positional_[max_positional] + "'");

  std::string unknown;
  for (; i < argc; ++i) {
    const std::string word = argv[i];
    if (word == "--help" || word == "-h") {
      flags.help_ = true;
      continue;
    }
    if (!StartsWith(word, "--"))
      throw FlagError("Flags: expected --flag, got '" + word + "'");
    std::string key = word.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    const bool inline_value = eq != std::string::npos;
    if (inline_value) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    const FlagSpec* spec = FindFlag(flags.table_, key);
    if (spec == nullptr) {
      // An unknown flag's value (if it has one) is skipped with it, so
      // the error names every unknown flag at once.
      if (!inline_value && i + 1 < argc && !IsFlagWord(argv[i + 1])) ++i;
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + key;
      continue;
    }
    if (!inline_value) {
      if (i + 1 >= argc)
        throw FlagError("Flags: --" + key + " needs a value");
      value = argv[++i];
    }
    CheckValue(*spec, value);
    if (!flags.values_.emplace(key, value).second)
      throw FlagError("Flags: --" + key + " given more than once");
  }
  if (!unknown.empty())
    throw FlagError("Flags: unknown flag(s): " + unknown);
  if (!flags.help_)
    for (const FlagSpec& spec : flags.table_)
      if (spec.required && !flags.Has(spec.name))
        throw FlagError("Flags: missing required --" + spec.name);
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::String(const std::string& name) const {
  const FlagSpec* spec = FindFlag(table_, name);
  if (spec == nullptr)
    throw std::logic_error("Flags: --" + name + " is not declared");
  const auto it = values_.find(name);
  return it == values_.end() ? spec->default_value : it->second;
}

std::string Flags::Path(const std::string& name) const {
  const std::string value = String(name);
  return value == "none" ? "" : value;
}

// A value was checked at Parse; only a flag with neither a value nor a
// default (a program error) reaches value() on an empty optional.
uint64_t Flags::Uint(const std::string& name) const {
  return ParseUint(String(name)).value();
}

double Flags::Double(const std::string& name) const {
  return ParseDouble(String(name)).value();
}

bool Flags::Bool(const std::string& name) const {
  return String(name) == "true" || String(name) == "1";
}

std::vector<std::string> Flags::List(const std::string& name) const {
  const std::string value = String(name);
  return value.empty() ? std::vector<std::string>{} : Split(value, ',');
}

std::string FlagHelp(const std::vector<FlagSpec>& table) {
  std::string out;
  for (const FlagSpec& spec : table) {
    std::string left = "  --" + spec.name + " " +
                       (spec.default_value.empty() ? Placeholder(spec.kind)
                                                   : spec.default_value);
    left.resize(std::max<size_t>(left.size() + 2, 32), ' ');
    out += left + spec.help + (spec.required ? " (required)" : "") + "\n";
  }
  return out;
}

}  // namespace stemroot
