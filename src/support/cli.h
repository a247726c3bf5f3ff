// Minimal command-line flag parsing for bench and example binaries.
//
// Accepted syntax: --name=value, --name value, --flag (boolean true).
// A *switch* never takes the "--name value" form, so a positional
// argument may follow it (`tool --switch file`).
// --help, unknown flags and malformed values print the usage line
// (program name and accepted flags) to stderr and exit with status 2,
// so typos in benchmark invocations are caught instead of silently
// running the default configuration.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace skil::support {

/// Parsed command line.
class Cli {
 public:
  /// `allowed` lists the allowed flag names (without leading dashes);
  /// `switches` lists further allowed flags that are switches.
  /// Exits the process with status 2 on --help or an unknown flag.
  Cli(int argc, char** argv, std::vector<std::string> allowed,
      const std::vector<std::string>& switches = {});

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Typed getters: a value that is empty, malformed, has trailing
  /// characters or is out of range exits with status 2.  Booleans are
  /// true/false/1/0/yes/no.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  [[noreturn]] void bad_value(const std::string& name, const char* kind) const;

  std::string program_;
  std::vector<std::string> allowed_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace skil::support
