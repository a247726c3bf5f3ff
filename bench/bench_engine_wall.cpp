// Execution-engine wall-clock comparison on the Table 2 grid.
//
// Runs the full Gaussian-elimination sweep (Skil + DPFL + Parix-C, no
// pivoting) once under the legacy one-OS-thread-per-virtual-processor
// engine and once under the pooled fiber engine, reports host wall
// seconds for each, and checks that the *virtual* times -- the
// scientific artefact -- are bit-identical across engines.
//
// Usage: bench_engine_wall [--quick] [--json=path] [--out-dir=dir]
//                          [--baseline=secs] [--baseline-note=text]
//                          [--reps=N] [--jobs=N|auto]
//                          [--carriers=N|auto] [--charge=interp|tape]
//                          [--settle=chain|closed] [--fuse=off|on]
//                          [--prof=off|counters|sampled]
//                          [--coll=tree|ring|rd|auto]
//                          [--engine=threads|pooled|both] [--trace-out=dir]
//
// --engine restricts the sweep to one engine (default: both).  With a
// single engine there is no cross-engine vtime comparison, so the
// report's vtimes_identical_across_engines is trivially true.
//
// --jobs forks one worker process per (p, n) cell, up to N at a time
// (virtual times are per-cell deterministic, so the assembled grid is
// identical); --jobs=auto resolves to the host's hardware
// concurrency.  --carriers pins the pooled engine's carrier-thread
// count (exported as SKIL_CARRIERS so forked cell workers inherit
// it); 'auto' resolves to hardware concurrency.  --charge selects the
// accounting path of the skeleton hot loops (default: the process
// default, i.e. SKIL_CHARGE or tape).
// --settle selects the ledger settlement strategy (charge_tape.h;
// default: the process default, i.e. SKIL_SETTLE or closed) -- both
// modes retire the identical add chain, so it moves wall time only.
// --fuse selects the skeleton fusion mode (charge_tape.h; default:
// the process default, i.e. SKIL_FUSE or off) -- 'on' runs the fused
// one-pass compositions, which lowers the *virtual* times too (the
// fused schedule is the artefact; see EXPERIMENTS.md W6 for the
// same-build off/on A/B methodology).
// --prof selects the host scheduler profiler (prof.h; default: the
// process default, i.e. SKIL_PROF or off) -- profiling reads host
// clocks and counters only, so the *virtual* times stay bit-identical
// in every mode; the wall times include the (small) profiling
// overhead, which EXPERIMENTS.md W7 quantifies.
// --coll selects the collective-algorithm family (parix/coll.h;
// default: the process default, i.e. SKIL_COLL or auto) -- like
// --fuse this legitimately moves the *virtual* times (the non-tree
// algorithms change the communication schedule) while the array
// results stay bit-identical; EXPERIMENTS.md W8 records the
// same-build tree/auto A/B.
// --trace-out runs one representative cell again under full tracing
// (after the timed sweep, so the timings stay untraced) and writes its
// Chrome trace + metrics JSON (parix/metrics.h) into the directory;
// under --prof=sampled the trace also carries the host carrier lanes.
// A bad knob value prints the accepted values and exits with status 2.
//
// The JSON report (default BENCH_engine.json, schema_version 9)
// records the run configuration (reps, jobs, nproc, charge path,
// settle mode) and per-cell wall seconds + virtual times alongside
// both engines' totals, so EXPERIMENTS.md can cite the engine speedup
// from a committed artefact; scripts/bench_trajectory.sh appends runs
// to it.  --baseline records an externally measured wall time of the
// same workload (e.g. a pre-refactor build) so the improvement over
// that build is part of the record; --baseline-note says *which*
// build/config produced that number (written as
// "baseline_provenance"), because a bare float invites misleading
// comparisons -- a 1-carrier run scored against a 4-carrier baseline
// reads as a slowdown unless the provenance travels with it.
//
// Schema history:
//   v9: gang settlement is gone (SKIL_SETTLE is chain|closed).
//       settle_counters drops gang_parks and gang_adds; the scheduler
//       block drops settle_enqueues, settle_ns, gang_batches, the
//       lane-occupancy histogram and settle_queue_max.
//   v8: adds "coll" (collective-algorithm family, SKIL_COLL) and
//       per-engine "coll_counters" (per-op calls by resolved
//       algorithm, bytes, hop sums, rounds, order fallbacks, summed
//       over the best rep's cells).  Always written, like
//       fusion_counters -- a tree-mode report proves the zoo stayed
//       off by showing zero non-tree picks (the validator enforces
//       this conservation).
//   v7: adds "prof" (host profiler mode) and, when prof != off,
//       per-engine "scheduler" (host scheduler counter totals summed
//       over the best rep's cells: dispatches, steals, parks,
//       settle-queue pressure, gang lane occupancy, buffer-pool hits),
//       so an engine report documents *how* the pooled runtime spent
//       the wall it reports.  prof == off writes no scheduler block --
//       the off path must stay observably free.
//   v6: adds "fuse" (skeleton fusion mode) and per-engine
//       "fusion_counters" (composition outcomes summed over the best
//       rep's cells), so an off/on A/B pair of reports documents both
//       the wall and vtime effect of fusion and proves the fused path
//       actually engaged.
//   v5: adds "settle" (settlement mode), per-engine
//       "median_wall_seconds" (median of rep_wall_seconds, reported
//       alongside the min because min-of-1 records say nothing about
//       spread), per-engine "settle_counters" (closed-form coverage
//       accounting, summed over the best rep's cells), per-cell
//       virtual times at full precision (skil_vtime_s / dpfl_vtime_s /
//       c_vtime_s, %.17g -- lets two report files be diffed for
//       bit-identical science without rerunning), and
//       "baseline_provenance" whenever baseline_wall_seconds is
//       present.
//   v4: adds "carriers" (the pooled engine's effective carrier-thread
//       count for this run) and records the *resolved* jobs value
//       (--jobs=auto is written as the number it resolved to).
//   v3: adds per-engine "rep_wall_seconds" (every repetition's wall,
//       not just the reported minimum) and, when --trace-out is given,
//       a "trace" object naming the traced cell and the exported
//       trace/metrics files.
//   v2: adds reps/jobs/nproc/charge configuration and per-cell walls.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/gauss.h"
#include "bench_common.h"
#include "gauss_sweep.h"
#include "parix/charge_tape.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "support/cli.h"
#include "support/error.h"

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli(argc, argv,
                         {"quick", "json", "out-dir", "baseline",
                          "baseline-note", "reps", "jobs", "carriers",
                          "charge", "settle", "fuse", "prof", "coll",
                          "engine", "trace-out"});
  const bool quick = cli.get_bool("quick");
  const double baseline_s = std::atof(cli.get("baseline", "0").c_str());
  const std::string baseline_note = cli.get("baseline-note", "unspecified");
  // The host timer is noisy (shared machine); the minimum over reps is
  // the standard robust estimator of the undisturbed wall time.
  const int reps = std::max(1, std::atoi(cli.get("reps", "1").c_str()));
  const std::string jobs_arg = cli.get("jobs", "1");
  const int jobs =
      jobs_arg == "auto"
          ? static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))
          : std::max(1, std::atoi(jobs_arg.c_str()));
  // The knob parsers raise ContractError naming the accepted values;
  // a bad value is a usage error, not a crash.
  int carriers = 0;
  try {
    if (cli.has("carriers")) {
      // Exported instead of set in-process only: forked cell workers
      // must resolve the same carrier count.  Invalid values fail
      // loudly inside executor_carriers() below.
      ::setenv("SKIL_CARRIERS", cli.get("carriers", "auto").c_str(), 1);
      parix::executor_set_carriers(0);
    }
    carriers = parix::executor_carriers();
    if (cli.has("charge"))
      parix::set_default_charge_path(
          parix::parse_charge_path(cli.get("charge", "tape")));
    if (cli.has("settle")) {
      // Exported as well as set in-process: the in-process slot is
      // inherited across fork by the cell workers, and the env var
      // keeps any tooling that re-execs (trace viewers, wrapper
      // scripts) on the same configuration.  --fuse, --prof and
      // --coll follow the same pattern.
      const std::string settle_arg = cli.get("settle", "closed");
      parix::set_default_settle_mode(parix::parse_settle_mode(settle_arg));
      ::setenv("SKIL_SETTLE", settle_arg.c_str(), 1);
    }
    if (cli.has("fuse")) {
      const std::string fuse_arg = cli.get("fuse", "off");
      parix::set_default_fuse_mode(parix::parse_fuse_mode(fuse_arg));
      ::setenv("SKIL_FUSE", fuse_arg.c_str(), 1);
    }
    if (cli.has("prof")) {
      const std::string prof_arg = cli.get("prof", "off");
      parix::set_default_prof_mode(parix::parse_prof_mode(prof_arg));
      ::setenv("SKIL_PROF", prof_arg.c_str(), 1);
    }
    if (cli.has("coll")) {
      const std::string coll_arg = cli.get("coll", "auto");
      parix::set_default_coll_mode(parix::parse_coll_mode(coll_arg));
      ::setenv("SKIL_COLL", coll_arg.c_str(), 1);
    }
  } catch (const support::ContractError& err) {
    std::fprintf(stderr, "bench_engine_wall: %s\n", err.what());
    return 2;
  }
  const char* charge_name =
      parix::default_charge_path() == parix::ChargePath::kTape ? "tape"
                                                               : "interp";
  const std::string settle_name(
      parix::settle_mode_name(parix::default_settle_mode()));
  const std::string fuse_name(
      parix::fuse_mode_name(parix::default_fuse_mode()));
  const parix::ProfMode prof_mode = parix::default_prof_mode();
  const std::string prof_name(parix::prof_mode_name(prof_mode));
  const std::string coll_name(
      parix::coll_mode_name(parix::default_coll_mode()));
  const std::uint64_t seed = 19960528;
  const auto ns = paper_ns(quick);
  const auto ps = paper_ps();

  banner("Execution engines -- wall clock on the Table 2 grid");
  std::printf("grid: n in {%d..%d}, p in {4, 16, 32, 64}; host threads: %u; "
              "jobs: %d; carriers: %d; charge path: %s; settle: %s; "
              "fuse: %s; prof: %s; coll: %s\n\n",
              ns.front(), ns.back(), std::thread::hardware_concurrency(),
              jobs, carriers, charge_name, settle_name.c_str(),
              fuse_name.c_str(), prof_name.c_str(), coll_name.c_str());

  struct EngineRun {
    const char* name;
    parix::ExecutionEngine engine;
    double wall_s = 0.0;
    std::vector<double> rep_walls;  // every repetition, in run order
    std::vector<GaussCell> cells;
  };
  std::vector<EngineRun> runs = {
      {"threads", parix::ExecutionEngine::kThreads, 0.0, {}, {}},
      {"pooled", parix::ExecutionEngine::kPooled, 0.0, {}, {}},
  };
  const std::string engine_filter = cli.get("engine", "both");
  if (engine_filter != "both") {
    std::erase_if(runs, [&](const EngineRun& run) {
      return engine_filter != run.name;
    });
    if (runs.empty()) {
      std::fprintf(stderr,
                   "bench_engine_wall: --engine must be threads, pooled or "
                   "both, got '%s'\n",
                   engine_filter.c_str());
      return 2;
    }
  }

  const parix::ExecutionEngine saved = parix::default_execution_engine();
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& run : runs) {
      parix::set_default_execution_engine(run.engine);
      std::fprintf(stderr, "engine %s (rep %d):\n", run.name, rep + 1);
      const auto start = std::chrono::steady_clock::now();
      auto cells = run_gauss_grid_jobs(ns, ps, seed, jobs);
      const auto stop = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(stop - start).count();
      const SweepSettleTotals totals = sum_settle_totals(cells);
      if (totals.total_adds() > 0)
        std::fprintf(
            stderr,
            "  settle: %llu M adds closed (%llu M memoized, %llu M "
            "probed), %llu M chained, %llu M chain-mode; "
            "closed-form coverage %.1f%%\n",
            static_cast<unsigned long long>(
                (totals.settle.closed_adds + totals.settle.memo_adds) /
                1000000),
            static_cast<unsigned long long>(totals.settle.memo_adds /
                                            1000000),
            static_cast<unsigned long long>(totals.settle.probe_adds /
                                            1000000),
            static_cast<unsigned long long>(totals.settle.chain_adds /
                                            1000000),
            static_cast<unsigned long long>(totals.inline_adds / 1000000),
            100.0 * totals.closed_coverage());
      if (totals.fusion.seen > 0)
        std::fprintf(
            stderr,
            "  fusion: %llu compositions seen, %llu fused, %llu rejected; "
            "%llu barriers + %llu tape passes eliminated\n",
            static_cast<unsigned long long>(totals.fusion.seen),
            static_cast<unsigned long long>(totals.fusion.fused),
            static_cast<unsigned long long>(totals.fusion.rejected()),
            static_cast<unsigned long long>(totals.fusion.barriers_eliminated),
            static_cast<unsigned long long>(totals.fusion.tapes_eliminated));
      run.rep_walls.push_back(wall);
      if (rep == 0 || wall < run.wall_s) {
        run.wall_s = wall;
        run.cells = std::move(cells);
      }
    }
  }
  parix::set_default_execution_engine(saved);
  // Median of the repetition walls: reported alongside the min because
  // a min-of-1 says nothing about spread (satellite of ISSUE 6).
  const auto median_of = [](std::vector<double> walls) {
    std::sort(walls.begin(), walls.end());
    const std::size_t mid = walls.size() / 2;
    return walls.size() % 2 == 1 ? walls[mid]
                                 : 0.5 * (walls[mid - 1] + walls[mid]);
  };
  for (const auto& run : runs)
    std::printf("  %-8s engine: %8.2f s wall (min of %d, median %.2f)\n",
                run.name, run.wall_s, reps, median_of(run.rep_walls));

  // The engines must agree on every virtual time to the last bit --
  // virtual time derives only from charge sequences and message
  // timestamps, never from host scheduling.
  bool identical = true;
  if (runs.size() == 2) {
    identical = runs[0].cells.size() == runs[1].cells.size();
    for (std::size_t i = 0; identical && i < runs[0].cells.size(); ++i) {
      const GaussCell& lhs = runs[0].cells[i];
      const GaussCell& rhs = runs[1].cells[i];
      identical = lhs.skil_s == rhs.skil_s && lhs.dpfl_s == rhs.dpfl_s &&
                  lhs.c_s == rhs.c_s;
    }
  }

  // One representative cell re-run under full tracing: the exported
  // Chrome trace + metrics JSON let a run's virtual timeline be
  // inspected in Perfetto without perturbing the timings above.
  std::string trace_path, metrics_path;
  int trace_p = 0, trace_n = 0;
  if (cli.has("trace-out")) {
    const std::string dir = cli.get("trace-out", ".");
    std::filesystem::create_directories(dir);
    trace_p = quick ? 4 : 16;
    trace_n = quick ? 64 : 128;
    const parix::TraceMode saved_trace = parix::default_trace_mode();
    parix::set_default_trace_mode(parix::TraceMode::kFull);
    const apps::GaussResult traced =
        apps::gauss_skil(trace_p, trace_n, seed, /*pivoting=*/false);
    parix::set_default_trace_mode(saved_trace);
    const std::string cell = "gauss_p" + std::to_string(trace_p) + "_n" +
                             std::to_string(trace_n);
    trace_path = dir + "/trace_" + cell + ".json";
    metrics_path = dir + "/metrics_" + cell + ".json";
    {
      // Under --prof=sampled the run carries a host timeline; the
      // merged export shows carrier lanes next to the virtual ones.
      std::ofstream os(trace_path);
      parix::write_chrome_trace(*traced.run.trace, traced.run.prof.get(), os);
    }
    {
      std::ofstream os(metrics_path);
      parix::write_metrics_json(traced.run, os);
    }
    std::printf("wrote %s\nwrote %s\n", trace_path.c_str(),
                metrics_path.c_str());
  }

  const double speedup =
      runs.size() == 2 ? runs[0].wall_s / runs[1].wall_s : 0.0;
  if (runs.size() == 2)
    std::printf("\npooled speedup over threads: %.2fx\n", speedup);
  if (baseline_s > 0.0)
    std::printf("%s speedup over baseline (%.1f s): %.2fx\n",
                runs.back().name, baseline_s, baseline_s / runs.back().wall_s);
  shape_check("virtual times bit-identical across engines", identical);

  const std::string path = out_path(cli, "json", "BENCH_engine.json");
  if (FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"schema_version\": 9,\n"
                 "  \"benchmark\": \"bench_engine_wall\",\n"
                 "  \"grid\": \"table2_gauss%s\",\n"
                 "  \"reps\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"carriers\": %d,\n"
                 "  \"nproc\": %u,\n"
                 "  \"charge\": \"%s\",\n"
                 "  \"settle\": \"%s\",\n"
                 "  \"fuse\": \"%s\",\n"
                 "  \"prof\": \"%s\",\n"
                 "  \"coll\": \"%s\",\n"
                 "  \"engines\": [\n",
                 quick ? "_quick" : "", reps, jobs, carriers,
                 std::thread::hardware_concurrency(), charge_name,
                 settle_name.c_str(), fuse_name.c_str(), prof_name.c_str(),
                 coll_name.c_str());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const EngineRun& run = runs[r];
      std::fprintf(out,
                   "    {\"engine\": \"%s\", \"wall_seconds\": %.3f, "
                   "\"median_wall_seconds\": %.3f, "
                   "\"rep_wall_seconds\": [",
                   run.name, run.wall_s, median_of(run.rep_walls));
      for (std::size_t i = 0; i < run.rep_walls.size(); ++i)
        std::fprintf(out, "%s%.3f", i == 0 ? "" : ", ", run.rep_walls[i]);
      std::fprintf(out, "], \"cells\": [");
      for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const GaussCell& cell = run.cells[i];
        // Virtual times at %.17g: full double round-trip precision, so
        // two report files diff bit-identically (the CI settlement
        // smoke compares chain vs closed reports this way).
        std::fprintf(out,
                     "%s{\"p\": %d, \"n\": %d, \"wall_seconds\": %.3f, "
                     "\"skil_vtime_s\": %.17g, \"dpfl_vtime_s\": %.17g, "
                     "\"c_vtime_s\": %.17g}",
                     i == 0 ? "" : ", ", cell.p, cell.n, cell.wall_s,
                     cell.skil_s, cell.dpfl_s, cell.c_s);
      }
      const SweepSettleTotals totals = sum_settle_totals(run.cells);
      std::fprintf(
          out,
          "], \"settle_counters\": {"
          "\"closed_runs\": %llu, \"closed_adds\": %llu, "
          "\"memo_hits\": %llu, \"memo_misses\": %llu, "
          "\"memo_adds\": %llu, \"probe_adds\": %llu, "
          "\"chain_records\": %llu, \"chain_adds\": %llu, "
          "\"inline_adds\": %llu, \"closed_coverage\": %.6f}, "
          "\"fusion_counters\": {"
          "\"seen\": %llu, \"fused\": %llu, "
          "\"rejected_shape\": %llu, \"rejected_order\": %llu, "
          "\"rejected_path\": %llu, \"barriers_eliminated\": %llu, "
          "\"tapes_eliminated\": %llu}",
          static_cast<unsigned long long>(totals.settle.closed_runs),
          static_cast<unsigned long long>(totals.settle.closed_adds),
          static_cast<unsigned long long>(totals.settle.memo_hits),
          static_cast<unsigned long long>(totals.settle.memo_misses),
          static_cast<unsigned long long>(totals.settle.memo_adds),
          static_cast<unsigned long long>(totals.settle.probe_adds),
          static_cast<unsigned long long>(totals.settle.chain_records),
          static_cast<unsigned long long>(totals.settle.chain_adds),
          static_cast<unsigned long long>(totals.inline_adds),
          totals.closed_coverage(),
          static_cast<unsigned long long>(totals.fusion.seen),
          static_cast<unsigned long long>(totals.fusion.fused),
          static_cast<unsigned long long>(totals.fusion.rejected_shape),
          static_cast<unsigned long long>(totals.fusion.rejected_order),
          static_cast<unsigned long long>(totals.fusion.rejected_path),
          static_cast<unsigned long long>(totals.fusion.barriers_eliminated),
          static_cast<unsigned long long>(totals.fusion.tapes_eliminated));
      // Collective-zoo counters (coll.h), summed over the best rep's
      // cells.  Always written (like fusion_counters): a tree-mode
      // report documents the zoo stayed off by showing zero non-tree
      // picks.
      std::fprintf(out, ", \"coll_counters\": {");
      for (int op = 0; op < parix::kNumCollOps; ++op) {
        const std::string op_name(
            parix::coll_op_name(static_cast<parix::CollOp>(op)));
        std::fprintf(out, "%s\"%s\": {\"calls\": {", op == 0 ? "" : ", ",
                     op_name.c_str());
        for (int a = 0; a < parix::kNumCollAlgos; ++a) {
          const std::string algo_name(
              parix::coll_algo_name(static_cast<parix::CollAlgo>(a)));
          std::fprintf(out, "%s\"%s\": %llu", a == 0 ? "" : ", ",
                       algo_name.c_str(),
                       static_cast<unsigned long long>(
                           totals.coll.calls[op][a]));
        }
        std::fprintf(
            out, "}, \"bytes\": %llu, \"hops\": %llu, \"steps\": %llu}",
            static_cast<unsigned long long>(totals.coll.bytes[op]),
            static_cast<unsigned long long>(totals.coll.hops[op]),
            static_cast<unsigned long long>(totals.coll.steps[op]));
      }
      std::fprintf(out, ", \"order_fallbacks\": %llu}",
                   static_cast<unsigned long long>(
                       totals.coll.order_fallbacks));
      // Host scheduler totals (prof.h), summed over the best rep's
      // cells.  Written only when profiling was on: an off-mode report
      // must be indistinguishable from a pre-v7 run's (the validator
      // enforces absence).
      if (prof_mode != parix::ProfMode::kOff) {
        const parix::SchedulerTotals sched = sum_sched_totals(run.cells);
        std::fprintf(
            out,
            ", \"scheduler\": {"
            "\"fibers_run\": %llu, \"fibers_resumed\": %llu, "
            "\"steal_attempts\": %llu, \"steal_successes\": %llu, "
            "\"steal_failed_rounds\": %llu, "
            "\"parks\": %llu, \"unparks\": %llu, \"run_ns\": %llu, "
            "\"pool_acquires\": %llu, \"pool_hits\": %llu, "
            "\"pool_misses\": %llu, \"pool_bytes\": %llu}",
            static_cast<unsigned long long>(sched.fibers_run),
            static_cast<unsigned long long>(sched.fibers_resumed),
            static_cast<unsigned long long>(sched.steal_attempts),
            static_cast<unsigned long long>(sched.steal_successes),
            static_cast<unsigned long long>(sched.steal_failed_rounds),
            static_cast<unsigned long long>(sched.parks),
            static_cast<unsigned long long>(sched.unparks),
            static_cast<unsigned long long>(sched.run_ns),
            static_cast<unsigned long long>(sched.pool_acquires),
            static_cast<unsigned long long>(sched.pool_hits),
            static_cast<unsigned long long>(sched.pool_misses),
            static_cast<unsigned long long>(sched.pool_bytes));
      }
      std::fprintf(out, "}%s\n", r + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    if (runs.size() == 2)
      std::fprintf(out, "  \"pooled_speedup_over_threads\": %.3f,\n", speedup);
    if (baseline_s > 0.0)
      std::fprintf(out,
                   "  \"baseline_wall_seconds\": %.3f,\n"
                   "  \"baseline_provenance\": \"%s\",\n"
                   "  \"pooled_speedup_over_baseline\": %.3f,\n",
                   baseline_s, baseline_note.c_str(),
                   baseline_s / runs.back().wall_s);
    if (!trace_path.empty())
      std::fprintf(out,
                   "  \"trace\": {\"app\": \"gauss_skil\", \"p\": %d, "
                   "\"n\": %d, \"trace_json\": \"%s\", "
                   "\"metrics_json\": \"%s\"},\n",
                   trace_p, trace_n, trace_path.c_str(),
                   metrics_path.c_str());
    std::fprintf(out,
                 "  \"vtimes_identical_across_engines\": %s\n"
                 "}\n",
                 identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }
  return identical ? 0 : 1;
}
