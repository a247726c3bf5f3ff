#include "support/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace skil::support {

namespace {

/// Prints `problem` (if any) and the usage line to stderr, then exits
/// with status 2.
[[noreturn]] void usage_exit(const std::string& program,
                             const std::vector<std::string>& allowed,
                             const std::string& problem) {
  if (!problem.empty()) std::fprintf(stderr, "%s\n", problem.c_str());
  std::fprintf(stderr, "usage: %s", program.c_str());
  for (const std::string& name : allowed)
    std::fprintf(stderr, " [--%s]", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, char** argv, std::vector<std::string> allowed)
    : program_(argc > 0 ? argv[0] : "") {
  auto permitted = [&](const std::string& name) {
    return std::find(allowed.begin(), allowed.end(), name) != allowed.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name = arg, value = "true";
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
               permitted(name)) {
      // "--name value" form: consume the next token as the value unless
      // the flag is boolean-style (heuristic: a known flag always takes
      // the following token when one is present).
      value = argv[++i];
    }
    if (name == "help") usage_exit(program_, allowed, "");
    if (!permitted(name))
      usage_exit(program_, allowed, "unknown command-line flag: --" + name);
    values_[name] = value;
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Cli::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::atoi(it->second.c_str());
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace skil::support
