#include "support/cli.h"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <utility>

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

Cli::Cli(int argc, char** argv, std::vector<std::string> allowed,
         const std::vector<std::string>& switches)
    : program_(argc > 0 ? argv[0] : ""), allowed_(std::move(allowed)) {
  const std::size_t valued = allowed_.size();
  allowed_.insert(allowed_.end(), switches.begin(), switches.end());
  auto permitted = [&](const std::string& name) {
    return std::find(allowed_.begin(), allowed_.end(), name) != allowed_.end();
  };
  auto takes_value = [&](const std::string& name) {
    const auto end = allowed_.begin() + static_cast<std::ptrdiff_t>(valued);
    return std::find(allowed_.begin(), end, name) != end;
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
               takes_value(name)) {
      // "--name value" form: only flags listed in `allowed` take the
      // following token as their value; `switches` never do.
      value = argv[++i];
    }
    if (name == "help") usage_exit(program_, allowed_, "");
    if (!permitted(name))
      usage_exit(program_, allowed_, "unknown command-line flag: --" + name);
    values_[name] = value;
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

void Cli::bad_value(const std::string& name, const char* kind) const {
  usage_exit(program_, allowed_,
             "--" + name + " needs " + kind + ", got '" + get(name, "") + "'");
}

namespace {

/// Parses all of `text` as a T; false on empty, malformed, trailing
/// characters or out of range.
template <class T>
bool parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

int Cli::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  int value = 0;
  if (!parse_whole(it->second, value)) bad_value(name, "an integer");
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!parse_whole(it->second, value)) bad_value(name, "a number");
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, "true/false/1/0/yes/no");
}

}  // namespace skil::support
