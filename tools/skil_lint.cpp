// skil-lint: analyze-only front end for the skilc semantic checks.
//
//   skil-lint [flags] file.skil...
//
//     --Werror                 exit non-zero on warnings too
//     --json=PATH              also write the findings as JSON to PATH
//                              (one object covering all input files:
//                              {"findings": [...], "skeletonize": {...}})
//     --no-<pass>              disable one analysis pass; the pass list
//                              is derived from analyze_passes(), so a
//                              newly registered pass gets its flag (and
//                              its line in --help) automatically
//
// Exit status: 0 clean, 1 findings (errors, or warnings under
// --Werror), 2 usage (including --help and unknown flags) or I/O
// failure.  Nothing is compiled: the tool stops after the analysis
// passes, so defective programs still lint.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "skilc/analyze.h"
#include "skilc/diagnostics.h"
#include "skilc/skeletonize.h"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

void usage(const std::string& program) {
  std::cerr << "usage: " << program
            << " [--Werror] [--json=PATH] [--no-<pass>] file.skil...\n"
               "passes:";
  for (const skil::skilc::AnalyzePass& pass : skil::skilc::analyze_passes())
    std::cerr << " " << pass.name;
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using skil::skilc::AnalyzeOptions;
  using skil::skilc::AnalyzePass;
  using skil::skilc::Diagnostic;
  using skil::skilc::DiagnosticSink;
  using skil::skilc::SkeletonizeCounters;

  // Flags are parsed by hand rather than through support::Cli: its
  // "--name value" form would make the boolean flags here swallow the
  // following file path.
  const std::string program = argc > 0 ? argv[0] : "skil-lint";
  AnalyzeOptions options;
  bool werror = false;
  std::string json_path;
  bool write_json = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      files.push_back(arg);
      continue;
    }
    if (arg == "--help") {
      usage(program);
      return 2;
    }
    if (arg == "--Werror") {
      werror = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      write_json = true;
      continue;
    }
    bool known = false;
    if (arg.rfind("--no-", 0) == 0) {
      const std::string name = arg.substr(5);
      for (const AnalyzePass& pass : skil::skilc::analyze_passes()) {
        if (name != pass.name) continue;
        options.*(pass.flag) = false;
        known = true;
        break;
      }
    }
    if (!known) {
      std::cerr << "skil-lint: unknown flag '" << arg << "'\n";
      usage(program);
      return 2;
    }
  }
  if (files.empty()) {
    usage(program);
    return 2;
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  SkeletonizeCounters totals;
  std::string findings_json = "[";
  bool json_first = true;

  for (const std::string& path : files) {
    std::string source;
    if (!read_file(path, source)) {
      std::cerr << "skil-lint: cannot read '" << path << "'\n";
      return 2;
    }
    DiagnosticSink sink;
    SkeletonizeCounters counters;
    skil::skilc::lint_source(source, sink, options, &counters);
    totals += counters;
    errors += sink.error_count();
    warnings += sink.warning_count();
    if (!sink.empty()) std::cout << sink.render(path);
    const std::string file_json = sink.render_json(path);
    // Splice this file's array into the combined one.
    if (file_json.size() > 2) {  // not "[]"
      if (!json_first) findings_json += ",";
      findings_json += file_json.substr(1, file_json.size() - 2);
      json_first = false;
    }
  }
  findings_json += "]";

  if (write_json) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "skil-lint: cannot write '" << json_path << "'\n";
      return 2;
    }
    out << "{\"findings\": " << findings_json
        << ", \"skeletonize\": " << totals.render_json() << "}\n";
  }

  if (errors + warnings > 0) {
    std::cerr << "skil-lint: " << errors << " error(s), " << warnings
              << " warning(s) across " << files.size() << " file(s)\n";
  }
  if (errors > 0) return 1;
  if (werror && warnings > 0) return 1;
  return 0;
}
