// skil-prof: text dashboard for SKIL_PROF scheduler reports.
//
//   skil-prof metrics.json
//
// Reads a metrics JSON file written by parix::write_metrics_json for a
// run with SKIL_PROF=counters and renders the host-scheduler
// dashboard: per-carrier utilization, steal success rate, settlement
// coverage and buffer-pool hit rate.
//
// Exit status: 0 ok, 2 usage (including --help and unknown flags) or
// input failure (missing file, metrics without a scheduler object,
// malformed JSON).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "parix/prof_report.h"
#include "support/error.h"
#include "support/json.h"

namespace {

int usage(const std::string& program) {
  std::cerr << "usage: " << program << " metrics.json\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string program = argc > 0 ? argv[0] : "skil-prof";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return usage(program);
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "skil-prof: unknown flag '" << arg << "'\n";
      return usage(program);
    }
    if (!path.empty()) {
      std::cerr << "skil-prof: more than one input file\n";
      return usage(program);
    }
    path = arg;
  }
  if (path.empty()) return usage(program);

  std::ifstream in(path);
  if (!in) {
    std::cerr << "skil-prof: cannot open '" << path << "'\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  try {
    const skil::support::json::Value metrics =
        skil::support::json::parse(buffer.str());
    skil::parix::render_prof_report(metrics, std::cout);
  } catch (const std::exception& err) {
    std::cerr << "skil-prof: " << path << ": " << err.what() << '\n';
    return 2;
  }
  return 0;
}
