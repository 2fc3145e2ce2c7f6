/// \file
/// The one command-line grammar of the CLI and the benches. A front end
/// declares its flags once, as a table of FlagSpec rows (name, kind,
/// default, bound, help line); Flags::Parse checks the whole command line
/// against that table before any work starts, and FlagHelp renders the
/// same table as the `--help` text. The grammar:
///
///   - positional words come first, then flags, as `--k v` or `--k=v`;
///   - a flag may appear at most once; `--help` (or `-h`) takes no value;
///   - a uint is range-checked against its bound, a double parses with
///     ParseDouble, a bool is true|false|1|0, a list is comma-separated,
///     and a path flag reads the value `none` as off;
///   - a required flag must be present unless `--help` is given.
///
/// Every violation throws FlagError; front ends exit 2 on it.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace stemroot {

/// A command line that does not match its grammar.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class FlagKind { kUint, kDouble, kBool, kString, kList, kPath };

/// One row of a flag table.
struct FlagSpec {
  std::string name;           ///< without the leading "--"
  FlagKind kind = FlagKind::kString;
  std::string default_value;  ///< text form; "" = no default
  std::string help;           ///< one line
  uint64_t max = std::numeric_limits<uint64_t>::max();  ///< kUint bound
  bool required = false;
};

/// `spec`, marked required.
FlagSpec Required(FlagSpec spec);

/// The row of `table` named `name`, or nullptr.
const FlagSpec* FindFlag(const std::vector<FlagSpec>& table,
                         const std::string& name);

/// A command line parsed against its flag table.
class Flags {
 public:
  /// Parse argv (excluding the program and command words) against
  /// `table`, allowing up to `max_positional` leading positional words.
  /// Throws FlagError on any violation of the grammar.
  static Flags Parse(int argc, const char* const* argv,
                     std::vector<FlagSpec> table, size_t max_positional = 0);

  /// `--help` or `-h` was given: print the usage and do no work.
  bool Help() const { return help_; }
  const std::vector<std::string>& Positional() const { return positional_; }

  /// The table declares `name`.
  bool Declares(const std::string& name) const {
    return FindFlag(table_, name) != nullptr;
  }
  /// `name` was given on the command line.
  bool Has(const std::string& name) const;

  /// The given value, else the table default. Values were checked at
  /// Parse; asking for an undeclared flag (std::logic_error), or for the
  /// number of a flag with neither a value nor a default
  /// (std::bad_optional_access), is a program error.
  std::string String(const std::string& name) const;
  /// A path flag: "" when absent without a default or given as `none`.
  std::string Path(const std::string& name) const;
  uint64_t Uint(const std::string& name) const;
  double Double(const std::string& name) const;
  bool Bool(const std::string& name) const;
  /// The comma-separated items; empty when the value is "".
  std::vector<std::string> List(const std::string& name) const;

 private:
  std::vector<FlagSpec> table_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

/// `table` as usage text: one `  --NAME VALUE  help` line per flag, where
/// VALUE is the default or, without one, the kind's placeholder (N, X,
/// BOOL, STR, A,B or FILE).
std::string FlagHelp(const std::vector<FlagSpec>& table);

}  // namespace stemroot
