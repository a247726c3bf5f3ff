// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (a) the paper's reported values, (b) the
// reproduced values from the virtual-time model, and (c) the shape
// checks that EXPERIMENTS.md records; it also writes a CSV next to the
// binary's working directory for replotting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "parix/metrics.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/table.h"

namespace skil::bench {

/// Prints "<bench>: cannot write '<path>'" and exits with status 1:
/// an unwritable output fails with a message, not an exception.
[[noreturn]] inline void cannot_write(const support::Cli& cli,
                                      const std::string& path) {
  std::fprintf(stderr, "%s: cannot write '%s'\n",
               std::filesystem::path(cli.program()).filename().c_str(),
               path.c_str());
  std::exit(1);
}

/// Writes `path` through `write(std::ostream&)`, or exits through
/// cannot_write when it cannot be opened or written.
template <typename Fn>
void write_file(const support::Cli& cli, const std::string& path, Fn&& write) {
  std::ofstream os(path);
  if (os) write(os);
  os.close();
  if (!os) cannot_write(cli, path);
  std::printf("wrote %s\n", path.c_str());
}

/// Output path for a bench artefact.  An explicit `--<flag>=path`
/// wins verbatim; otherwise the default file name lands in
/// `--out-dir` (default: the working directory).  Benches passing
/// their outputs through this accept both flags.  The path is opened
/// for appending once, so an unwritable one exits through
/// cannot_write before the bench does any work.
inline std::string out_path(const support::Cli& cli, const std::string& flag,
                            const std::string& default_name) {
  std::string path = cli.get(flag, default_name);
  if (!cli.has(flag)) {
    const std::string dir = cli.get("out-dir", "");
    if (!dir.empty())
      path = dir.back() == '/' ? dir + default_name : dir + "/" + default_name;
  }
  if (!std::ofstream(path, std::ios::app)) cannot_write(cli, path);
  return path;
}

/// Seconds of modeled time, formatted like the paper's tables.
inline std::string secs(double vtime_us, int digits = 2) {
  return support::fmt_fixed(vtime_us * 1e-6, digits);
}

/// Label "2x2".."8x8" for a square processor grid.
inline std::string grid_label(int nprocs) {
  int q = 1;
  while ((q + 1) * (q + 1) <= nprocs) ++q;
  if (q * q == nprocs) return std::to_string(q) + "x" + std::to_string(q);
  return std::to_string(nprocs);
}

/// True when the bench should re-run its representative configuration
/// under full tracing for the artefact exports below.  Keyed on the
/// artefact flags, not --out-dir, so a plain `--out-dir=...` CSV run
/// stays untraced.
inline bool wants_run_artifacts(const support::Cli& cli) {
  return cli.has("metrics-out") || cli.has("trace-out");
}

/// Re-runs `fn` under full tracing (saving and restoring the process
/// default trace mode) and returns its result.  Benches call this
/// *after* their timed sweeps so the recorded timings stay untraced.
template <typename Fn>
auto traced_rerun(Fn&& fn) {
  const parix::TraceMode saved = parix::default_trace_mode();
  parix::set_default_trace_mode(parix::TraceMode::kFull);
  auto result = fn();
  parix::set_default_trace_mode(saved);
  return result;
}

/// Writes the Chrome trace (--trace-out) and/or metrics JSON
/// (--metrics-out) for a completed traced run.  An explicit flag value
/// is a verbatim file path; a bare default name lands in --out-dir via
/// out_path.
inline void write_run_artifacts(const support::Cli& cli,
                                const parix::RunResult& run,
                                const std::string& stem) {
  // A bare `--trace-out` parses as the boolean value "true" (cli.h);
  // treat it like an absent value so the default name lands in
  // --out-dir, same as the CSV outputs.
  const auto artefact_path = [&](const std::string& flag,
                                 const std::string& default_name) {
    const std::string v = cli.get(flag, "true");
    if (v != "true") return v;
    const std::string dir = cli.get("out-dir", "");
    if (dir.empty()) return default_name;
    return dir.back() == '/' ? dir + default_name : dir + "/" + default_name;
  };
  if (cli.has("trace-out") && run.trace != nullptr) {
    const std::string path = artefact_path("trace-out",
                                           "trace_" + stem + ".json");
    write_file(cli, path, [&](std::ostream& os) {
      parix::write_chrome_trace(*run.trace, os);
    });
  }
  if (cli.has("metrics-out")) {
    const std::string path = artefact_path("metrics-out",
                                           "metrics_" + stem + ".json");
    write_file(cli, path, [&](std::ostream& os) {
      parix::write_metrics_json(run, os);
    });
  }
}

/// Prints a section header.
inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Prints one shape-check line: the qualitative property the paper's
/// data shows, and whether the reproduction satisfies it.
inline bool shape_check(const std::string& name, bool holds) {
  std::printf("  [%s] %s\n", holds ? "OK" : "MISS", name.c_str());
  return holds;
}

}  // namespace skil::bench
