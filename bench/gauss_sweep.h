// The Gaussian-elimination measurement grid shared by bench_table2 and
// bench_figure1 (paper Table 2 / Figure 1: n in {64..640}, p in
// {4, 16, 32, 64}, no-pivot variant, all three languages).
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/gauss.h"
#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/prof.h"
#include "support/error.h"

namespace skil::bench {

struct GaussCell {
  int p = 0;
  int n = 0;
  double skil_s = 0.0;
  double dpfl_s = 0.0;
  double c_s = 0.0;
  /// Host wall seconds this cell took (all three variants).
  double wall_s = 0.0;
  /// Settlement counter deltas over this cell's three runs
  /// (charge_tape.h), plus the adds SKIL_SETTLE=chain executed.  Exact
  /// when the cell ran in its own forked worker; in-process sequential
  /// sweeps accumulate them per cell from the process-wide counters,
  /// which is equally exact there.
  parix::SettleCounters settle;
  std::uint64_t inline_adds = 0;
  /// Skeleton fusion outcome deltas over this cell's three runs
  /// (charge_tape.h): all zero under SKIL_FUSE=off.
  parix::FusionCounters fusion;
  /// Host scheduler counter deltas over this cell's three runs
  /// (prof.h): all zero under SKIL_PROF=off.
  parix::SchedulerTotals sched;
  /// Collective-algorithm counters over this cell's three runs
  /// (coll.h): which algorithm family every collective resolved to.
  parix::CollectiveCounters coll;
  double dpfl_over_skil() const { return dpfl_s / skil_s; }
  double skil_over_c() const { return skil_s / c_s; }
};

/// Sums the settlement-relevant counters of a finished grid, for
/// coverage reports (bench_engine_wall, the CI settlement smoke).
struct SweepSettleTotals {
  parix::SettleCounters settle;
  std::uint64_t inline_adds = 0;
  parix::FusionCounters fusion;
  parix::CollectiveCounters coll;

  /// All chain adds settlement accounted for, however retired.
  std::uint64_t total_adds() const {
    return settle.closed_adds + settle.memo_adds + settle.probe_adds +
           settle.chain_adds + inline_adds;
  }
  /// Fraction of chain adds retired closed-form (freshly probed or
  /// memoized) -- the ISSUE 6 coverage metric.
  double closed_coverage() const {
    const std::uint64_t total = total_adds();
    if (total == 0) return 0.0;
    return static_cast<double>(settle.closed_adds + settle.memo_adds) /
           static_cast<double>(total);
  }
};

/// Sums the host scheduler counters of a finished grid (prof.h) --
/// all zero unless the sweep ran under SKIL_PROF=counters|sampled.
inline parix::SchedulerTotals sum_sched_totals(
    const std::vector<GaussCell>& cells) {
  parix::SchedulerTotals t;
  for (const GaussCell& cell : cells) t.add(cell.sched);
  return t;
}

inline SweepSettleTotals sum_settle_totals(const std::vector<GaussCell>& cells) {
  SweepSettleTotals t;
  for (const GaussCell& cell : cells) {
    t.settle.closed_runs += cell.settle.closed_runs;
    t.settle.closed_adds += cell.settle.closed_adds;
    t.settle.memo_hits += cell.settle.memo_hits;
    t.settle.memo_misses += cell.settle.memo_misses;
    t.settle.memo_adds += cell.settle.memo_adds;
    t.settle.probe_adds += cell.settle.probe_adds;
    t.settle.chain_records += cell.settle.chain_records;
    t.settle.chain_adds += cell.settle.chain_adds;
    t.inline_adds += cell.inline_adds;
    t.fusion.seen += cell.fusion.seen;
    t.fusion.fused += cell.fusion.fused;
    t.fusion.rejected_shape += cell.fusion.rejected_shape;
    t.fusion.rejected_order += cell.fusion.rejected_order;
    t.fusion.rejected_path += cell.fusion.rejected_path;
    t.fusion.barriers_eliminated += cell.fusion.barriers_eliminated;
    t.fusion.tapes_eliminated += cell.fusion.tapes_eliminated;
    t.coll += cell.coll;
  }
  return t;
}

/// Paper Table 2 reference values: Skil absolute seconds (bold),
/// DPFL/Skil (roman), Skil/Parix-C (italics).  Negative = the paper
/// does not report the cell (p = 4 ran out of the 1 MB/node memory
/// beyond n = 384; DPFL was not reported for every cell).
struct PaperGaussCell {
  int p;
  int n;
  double skil_s;
  double dpfl_over_skil;
  double skil_over_c;
};

inline const std::vector<PaperGaussCell>& paper_table2() {
  static const std::vector<PaperGaussCell> rows = {
      {4, 64, 2.06, 6.17, 2.40},     {4, 128, 14.77, 6.52, 2.51},
      {4, 256, 113.29, 6.65, 2.60},  {4, 384, 377.62, 6.69, 2.64},
      {4, 512, -1, -1, -1},          {4, 640, -1, -1, -1},
      {16, 64, 0.91, -1, 1.57},      {16, 128, 4.83, 4.82, 1.73},
      {16, 256, 32.06, 5.73, 2.02},  {16, 384, 102.16, 6.22, 2.20},
      {16, 512, 236.13, 6.40, 2.31}, {16, 640, 453.86, 6.48, 2.38},
      {32, 64, 0.85, 3.87, 1.25},    {32, 128, 3.49, 4.88, 1.24},
      {32, 256, 19.42, 5.62, 1.45},  {32, 384, 58.03, 5.96, 1.65},
      {32, 512, 129.89, 6.12, 1.78}, {32, 640, 244.77, 6.24, 1.90},
      {64, 64, 0.85, 3.48, 1.04},    {64, 128, 2.94, 4.17, 0.94},
      {64, 256, 13.57, 4.78, 1.03},  {64, 384, 37.03, 5.21, 1.15},
      {64, 512, 78.71, 5.47, 1.26},  {64, 640, 143.28, 5.68, 1.37},
  };
  return rows;
}

inline std::vector<int> paper_ns(bool quick) {
  if (quick) return {64, 128};
  return {64, 128, 256, 384, 512, 640};
}

inline std::vector<int> paper_ps() { return {4, 16, 32, 64}; }

/// Runs one (p, n) cell: all three variants, with the host wall time
/// recorded on the cell.
inline GaussCell run_gauss_cell(int p, int n, std::uint64_t seed) {
  GaussCell cell;
  cell.p = p;
  cell.n = n;
  const auto start = std::chrono::steady_clock::now();
  const auto account = [&cell](const parix::RunResult& run, double* out_s) {
    *out_s = run.vtime_seconds();
    cell.settle.closed_runs += run.settle.closed_runs;
    cell.settle.closed_adds += run.settle.closed_adds;
    cell.settle.memo_hits += run.settle.memo_hits;
    cell.settle.memo_misses += run.settle.memo_misses;
    cell.settle.memo_adds += run.settle.memo_adds;
    cell.settle.probe_adds += run.settle.probe_adds;
    cell.settle.chain_records += run.settle.chain_records;
    cell.settle.chain_adds += run.settle.chain_adds;
    cell.inline_adds += run.gang.inline_adds;
    cell.fusion.seen += run.fusion.seen;
    cell.fusion.fused += run.fusion.fused;
    cell.fusion.rejected_shape += run.fusion.rejected_shape;
    cell.fusion.rejected_order += run.fusion.rejected_order;
    cell.fusion.rejected_path += run.fusion.rejected_path;
    cell.fusion.barriers_eliminated += run.fusion.barriers_eliminated;
    cell.fusion.tapes_eliminated += run.fusion.tapes_eliminated;
    cell.sched.add(run.scheduler);
    cell.coll += run.coll;
  };
  account(apps::gauss_skil(p, n, seed, /*pivoting=*/false).run, &cell.skil_s);
  account(apps::gauss_dpfl(p, n, seed).run, &cell.dpfl_s);
  account(apps::gauss_c(p, n, seed).run, &cell.c_s);
  cell.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return cell;
}

/// Runs the full grid (Skil + DPFL + C, no pivoting) and returns one
/// cell per (p, n).  Progress goes to stderr so table output stays
/// clean.
inline std::vector<GaussCell> run_gauss_grid(const std::vector<int>& ns,
                                             const std::vector<int>& ps,
                                             std::uint64_t seed) {
  std::vector<GaussCell> cells;
  for (int p : ps)
    for (int n : ns) {
      std::fprintf(stderr, "  running gauss p=%d n=%d ...\n", p, n);
      cells.push_back(run_gauss_cell(p, n, seed));
    }
  return cells;
}

/// Process-per-cell parallel grid: forks up to `jobs` workers, each
/// computing one (p, n) cell and shipping its result doubles back
/// through a pipe.  Virtual times are deterministic per cell, so the
/// assembled grid is identical to run_gauss_grid's no matter how the
/// host schedules the workers.
///
/// Fork safety: the parent process must not have executed an SPMD run
/// before calling this (the pooled engine's worker threads are created
/// lazily on first use and would not survive fork).  The bench mains
/// satisfy this by forking before any in-process sweep.
inline std::vector<GaussCell> run_gauss_grid_jobs(const std::vector<int>& ns,
                                                  const std::vector<int>& ps,
                                                  std::uint64_t seed,
                                                  int jobs) {
  if (jobs <= 1) return run_gauss_grid(ns, ps, seed);

  std::vector<GaussCell> cells;
  for (int p : ps)
    for (int n : ns) {
      GaussCell cell;
      cell.p = p;
      cell.n = n;
      cells.push_back(cell);
    }

  // Wire format cell -> parent: the four timing doubles followed by
  // the settlement/fusion/scheduler/collective counters, fixed-width so
  // a single read drains the pipe atomically (well under PIPE_BUF's
  // 4096).  One visitor names the counter slots for both directions,
  // so pack and unpack cannot disagree on the layout.
  constexpr int kWireCounters = 57;
  struct CellWire {
    double d[4];
    std::uint64_t u[kWireCounters];
  };
  static_assert(sizeof(CellWire) < 1024, "CellWire must stay one pipe write");
  const auto for_each_counter = [](GaussCell& cell, auto&& visit) {
    visit(cell.settle.closed_runs);
    visit(cell.settle.closed_adds);
    visit(cell.settle.memo_hits);
    visit(cell.settle.memo_misses);
    visit(cell.settle.memo_adds);
    visit(cell.settle.probe_adds);
    visit(cell.settle.chain_records);
    visit(cell.settle.chain_adds);
    visit(cell.inline_adds);
    visit(cell.fusion.seen);
    visit(cell.fusion.fused);
    visit(cell.fusion.rejected_shape);
    visit(cell.fusion.rejected_order);
    visit(cell.fusion.rejected_path);
    visit(cell.fusion.barriers_eliminated);
    visit(cell.fusion.tapes_eliminated);
    visit(cell.sched.fibers_run);
    visit(cell.sched.fibers_resumed);
    visit(cell.sched.steal_attempts);
    visit(cell.sched.steal_successes);
    visit(cell.sched.steal_failed_rounds);
    visit(cell.sched.parks);
    visit(cell.sched.unparks);
    visit(cell.sched.run_ns);
    visit(cell.sched.pool_acquires);
    visit(cell.sched.pool_hits);
    visit(cell.sched.pool_misses);
    visit(cell.sched.pool_bytes);
    for (int op = 0; op < parix::kNumCollOps; ++op)
      for (int a = 0; a < parix::kNumCollAlgos; ++a)
        visit(cell.coll.calls[op][a]);
    for (int op = 0; op < parix::kNumCollOps; ++op) {
      visit(cell.coll.bytes[op]);
      visit(cell.coll.hops[op]);
      visit(cell.coll.steps[op]);
    }
    visit(cell.coll.order_fallbacks);
  };
  const auto pack = [&for_each_counter](GaussCell cell) {
    CellWire w{};
    w.d[0] = cell.skil_s;
    w.d[1] = cell.dpfl_s;
    w.d[2] = cell.c_s;
    w.d[3] = cell.wall_s;
    int slot = 0;
    for_each_counter(cell, [&](std::uint64_t& v) {
      SKIL_ASSERT(slot < kWireCounters, "CellWire: too many counters");
      w.u[slot++] = v;
    });
    SKIL_ASSERT(slot == kWireCounters, "CellWire: too few counters");
    return w;
  };
  const auto unpack = [&for_each_counter](const CellWire& w, GaussCell& cell) {
    cell.skil_s = w.d[0];
    cell.dpfl_s = w.d[1];
    cell.c_s = w.d[2];
    cell.wall_s = w.d[3];
    int slot = 0;
    for_each_counter(cell, [&](std::uint64_t& v) { v = w.u[slot++]; });
  };

  struct Worker {
    pid_t pid = -1;
    int read_fd = -1;
    std::size_t cell = 0;
  };
  std::vector<Worker> active;

  auto reap_one = [&cells, &active, &unpack]() {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    SKIL_ASSERT(pid > 0, "run_gauss_grid_jobs: waitpid failed");
    for (std::size_t w = 0; w < active.size(); ++w) {
      if (active[w].pid != pid) continue;
      SKIL_ASSERT(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                  "run_gauss_grid_jobs: worker failed for cell p=" +
                      std::to_string(cells[active[w].cell].p) +
                      " n=" + std::to_string(cells[active[w].cell].n));
      CellWire wire{};
      const ssize_t got = ::read(active[w].read_fd, &wire, sizeof(wire));
      ::close(active[w].read_fd);
      SKIL_ASSERT(got == static_cast<ssize_t>(sizeof(wire)),
                  "run_gauss_grid_jobs: short read from worker");
      unpack(wire, cells[active[w].cell]);
      active.erase(active.begin() + static_cast<long>(w));
      return;
    }
    // An unrelated child (none are spawned here); ignore it.
  };

  for (std::size_t i = 0; i < cells.size(); ++i) {
    while (active.size() >= static_cast<std::size_t>(jobs)) reap_one();
    int fds[2];
    SKIL_ASSERT(::pipe(fds) == 0, "run_gauss_grid_jobs: pipe failed");
    std::fprintf(stderr, "  running gauss p=%d n=%d ...\n", cells[i].p,
                 cells[i].n);
    const pid_t pid = ::fork();
    SKIL_ASSERT(pid >= 0, "run_gauss_grid_jobs: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      const GaussCell cell = run_gauss_cell(cells[i].p, cells[i].n, seed);
      const CellWire wire = pack(cell);
      const ssize_t wrote = ::write(fds[1], &wire, sizeof(wire));
      ::_exit(wrote == static_cast<ssize_t>(sizeof(wire)) ? 0 : 1);
    }
    ::close(fds[1]);
    active.push_back(Worker{pid, fds[0], i});
  }
  while (!active.empty()) reap_one();
  return cells;
}

/// Paper reference for a (p, n) cell, if reported.
inline const PaperGaussCell* paper_cell(int p, int n) {
  for (const auto& row : paper_table2())
    if (row.p == p && row.n == n) return &row;
  return nullptr;
}

}  // namespace skil::bench
