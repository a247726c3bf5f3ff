// Benchmark harness for the Skil reproduction: runs one named workload
// in this process, checks every output, and prints every metric by
// name and unit.  perfbench/run.py builds this binary and drives it;
// perfbench/README.md explains the workloads and metrics.
//
// A run sets up (inputs, sequential oracles, warm-up) and prints a
// "ready" line, then repeats one fixed pass of the workload until
// --seconds is used up.  --trace 0 reports the end-to-end metrics.
// --trace 1 spends the first half untraced and the second half traced
// (SKIL_PROF counters plus this harness's own spans), adds one
// TraceMode::kFull cell for the critical-path split, and reports the
// per-layer metrics.  The last stdout line is the result JSON.
//
// Every layer number comes from timers placed here around calls into
// the modules' public functions, or from the counters parix::RunResult
// already returns; nothing inside the program is instrumented.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/gauss.h"
#include "apps/shortest_paths.h"
#include "apps/stencil_jacobi.h"
#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/prof.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "skilc/analyze.h"
#include "skilc/compiler.h"
#include "skilc/emit.h"
#include "skilc/fusion.h"
#include "skilc/instantiate.h"
#include "skilc/lexer.h"
#include "skilc/parser.h"
#include "skilc/skeletonize.h"
#include "skilc/typecheck.h"
#include "support/error.h"
#include "support/matrix.h"

extern char** environ;

namespace {

using namespace skil;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Carriers the pooled engine runs: the host's usable cores, capped so
/// results stay comparable across hosts.
constexpr int kMaxCarriers = 4;

// ------------------------------------------------------------------ CLI

constexpr const char* kUsage =
    "usage: skil_perfbench --workload NAME [options]\n"
    "\n"
    "  --workload NAME    gauss_t2 | shpaths_t1 | stencil_halo | "
    "skilc_pipeline\n"
    "  --seed N           input seed (default 1)\n"
    "  --seconds S        measuring time in seconds (default 10)\n"
    "  --trace 0|1        0: end-to-end metrics; 1: per-layer metrics\n"
    "                     from a traced run (default 0)\n"
    "  --small            smallest size of the workload (self-test)\n"
    "  --setup-only       set up, print 'ready' and exit\n"
    "  --wrong-expected   corrupt one expected value (self-test: the\n"
    "                     run must report a failed check)\n"
    "  --root DIR         repository checkout (default .)\n"
    "  --trace-dir DIR    where --trace 1 writes its spans\n"
    "                     (default .bench_build/traces)\n"
    "  --commit SHA       source revision recorded with the result\n"
    "  --help             this text\n";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  bool setup_only = false;
  bool wrong_expected = false;
  std::string root = ".";
  std::string trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
};

[[noreturn]] void usage_exit(const std::string& message) {
  if (!message.empty()) std::fprintf(stderr, "skil_perfbench: %s\n", message.c_str());
  std::fputs(kUsage, stderr);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
    usage_exit("--" + flag + " needs a non-negative integer, got '" + text + "'");
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opts;
  const std::vector<std::string> workloads = {"gauss_t2", "shpaths_t1",
                                              "stencil_halo", "skilc_pipeline"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage_exit("");
    if (arg.rfind("--", 0) != 0) usage_exit("unexpected argument '" + arg + "'");
    std::string name = arg.substr(2), value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto flag_only = [&] {
      if (has_value) usage_exit("--" + name + " takes no value");
    };
    const auto take = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) usage_exit("--" + name + " needs a value");
      return argv[++i];
    };
    if (name == "workload") {
      opts.workload = take();
      if (std::find(workloads.begin(), workloads.end(), opts.workload) ==
          workloads.end())
        usage_exit("unknown workload '" + opts.workload + "'");
    } else if (name == "seed") {
      opts.seed = parse_u64(name, take());
    } else if (name == "seconds") {
      const std::uint64_t s = parse_u64(name, take());
      if (s < 1 || s > 3600) usage_exit("--seconds must be 1..3600");
      opts.seconds = static_cast<double>(s);
    } else if (name == "trace") {
      const std::string v = take();
      if (v != "0" && v != "1") usage_exit("--trace must be 0 or 1");
      opts.trace = v == "1";
    } else if (name == "small") {
      flag_only();
      opts.small = true;
    } else if (name == "setup-only") {
      flag_only();
      opts.setup_only = true;
    } else if (name == "wrong-expected") {
      flag_only();
      opts.wrong_expected = true;
    } else if (name == "root") {
      opts.root = take();
    } else if (name == "trace-dir") {
      opts.trace_dir = take();
    } else if (name == "commit") {
      opts.commit = take();
    } else {
      usage_exit("unknown flag '" + arg + "'");
    }
  }
  if (opts.workload.empty()) usage_exit("--workload is required");
  return opts;
}

// ---------------------------------------------------------------- spans

/// The harness's own spans: name, parent, start and end on one
/// steady-clock epoch.  Kept in memory, written when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now_ns(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  /// Summed duration of the spans without a parent.
  double top_level_seconds() const {
    std::int64_t ns = 0;
    for (const Span& s : spans_)
      if (s.parent < 0) ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) * 1e-9;
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n " : "\n ") << "{\"id\":" << i << ",\"parent\":"
          << s.parent << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span for its scope; a no-op when the log is null (untraced).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ----------------------------------------------------------------- pass

/// Everything one pass of a workload measured and checked.
struct Pass {
  SpanLog* spans = nullptr;  ///< non-null in traced passes
  int span_root = -1;
  bool print_cells = false;  ///< print per-cell vtimes (first pass only)

  double wall_s = 0.0;  ///< host seconds inside the timed layer calls
  /// Per-layer host timers and schedule-dependent counts.
  std::map<std::string, double> host;
  /// Deterministic work counts; must repeat exactly pass to pass.
  std::map<std::string, std::uint64_t> work;
  double skil_vtime_us = 0.0;  ///< modeled time summed over Skil runs
  parix::SchedulerTotals sched;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }

  /// Books one app call: its host time and the counters its RunResult
  /// carries.
  void account(const std::string& lang, const parix::RunResult& run,
               double host_s) {
    wall_s += host_s;
    host["apps." + lang + "_s"] += host_s;
    host["parix.spmd_s"] += run.wall_seconds;
    work["parix.msgs"] += run.total.messages_sent;
    work["parix.bytes"] += run.total.bytes_sent;
    work["parix.coll.calls"] += run.coll.total_calls();
    work["parix.coll.ring_calls"] += run.coll.calls_for(parix::CollAlgo::kRing);
    for (int op = 0; op < parix::kNumCollOps; ++op)
      work["parix.coll.hops"] += run.coll.hops[op];
    // Settlement totals repeat exactly.  Their split does not: the
    // settlement memo is shared by all processors of a run, so which
    // one probes a period and which ones hit the memo depends on the
    // carriers' schedule.  The split is booked with the host measures.
    const parix::SettleCounters& st = run.settle;
    const std::uint64_t closed = st.closed_adds + st.memo_adds;
    work["parix.settle.adds"] += closed + st.probe_adds + st.chain_adds +
                                 run.gang.gang_adds + run.gang.inline_adds;
    work["parix.settle.chain_adds"] += st.chain_adds;
    work["parix.settle.memo_lookups"] += st.memo_hits + st.memo_misses;
    host["parix.settle.closed_adds"] += static_cast<double>(closed);
    host["parix.settle.memo_hits"] += static_cast<double>(st.memo_hits);
    const auto op = [&](parix::Op kind) {
      return run.total.ops[static_cast<std::size_t>(kind)];
    };
    work["ops.call"] += op(parix::Op::kCall);
    work["ops.indirect_call"] += op(parix::Op::kIndirectCall);
    work["ops.alloc"] += op(parix::Op::kAlloc);
    work["ops.copy_word"] += op(parix::Op::kCopyWord);
    sched.add(run.scheduler);
  }

  /// Records one cell's modeled time: bit-exact in the work counts and
  /// printed at %.17g on the first pass.
  void vtime(const std::string& key, double vtime_us, bool skil) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &vtime_us, sizeof bits);
    work["vtime_bits." + key] = bits;
    if (skil) skil_vtime_us += vtime_us;
    if (print_cells) std::printf("cell %s vtime_us=%.17g\n", key.c_str(), vtime_us);
  }
};

// ------------------------------------------------------------ workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs and the sequential oracles the checks compare against.
  virtual void setup() = 0;
  virtual void run_pass(Pass& pass) = 0;
  /// One run under TraceMode::kFull for the critical-path split, with
  /// the work-count key its untraced vtime was recorded under.
  virtual std::optional<std::pair<std::string, parix::RunResult>>
  full_trace_cell() {
    return std::nullopt;
  }
};

struct Cell {
  int p;
  int n;
  std::string key(const std::string& prefix) const {
    return prefix + ".p" + std::to_string(p) + "n" + std::to_string(n);
  }
};

template <class Fn>
auto timed(double& host_s, Fn&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  host_s = since(t0);
  return result;
}

/// Paper Table 2 grid, no pivoting, Skil / DPFL / Parix-C.
class GaussT2 final : public Workload {
 public:
  GaussT2(std::uint64_t seed, bool small, bool wrong)
      : seed_(seed), wrong_(wrong) {
    if (small)
      cells_ = {{4, 32}};
    else
      cells_ = {{16, 256}, {32, 384}, {64, 384}, {64, 640}};
  }

  void setup() override {
    for (const Cell& c : cells_) {
      if (systems_.count(c.n)) continue;
      System& s = systems_[c.n];
      s.ab = support::random_linear_system(c.n, seed_);
      s.x = support::seq_gauss_nopivot(s.ab);
      if (wrong_) s.x[0] += 1.0;
    }
  }

  void run_pass(Pass& pass) override {
    for (const Cell& c : cells_) {
      const std::string key = c.key("gauss");
      ScopedSpan cell_span(pass.spans, key, pass.span_root);
      double vt[3] = {};
      for (int lang = 0; lang < 3; ++lang) {
        const std::string name = kLangs[lang];
        ScopedSpan lang_span(pass.spans, name, cell_span.id());
        double host_s = 0.0;
        const apps::GaussResult r = timed(host_s, [&] {
          if (lang == 0) return apps::gauss_skil(c.p, c.n, seed_, false);
          if (lang == 1) return apps::gauss_dpfl(c.p, c.n, seed_);
          return apps::gauss_c(c.p, c.n, seed_);
        });
        pass.account(name, r.run, host_s);
        pass.vtime(key + "." + name, r.run.vtime_us, lang == 0);
        vt[lang] = r.run.vtime_us;
        check_solution(pass, key + "." + name, c.n, r.x);
      }
      // The bands bench_table2_gauss asserts (EXPERIMENTS.md T2).
      const double dpfl_over_skil = vt[1] / vt[0];
      const double skil_over_c = vt[0] / vt[2];
      pass.check(dpfl_over_skil >= 2.5 && dpfl_over_skil <= 10.0,
                 key + " DPFL/Skil " + std::to_string(dpfl_over_skil) +
                     " outside 2.5..10");
      pass.check(skil_over_c >= 0.8 && skil_over_c <= 3.5,
                 key + " Skil/C " + std::to_string(skil_over_c) +
                     " outside 0.8..3.5");
    }
  }

  std::optional<std::pair<std::string, parix::RunResult>> full_trace_cell()
      override {
    const Cell& c = cells_.front();
    return std::make_pair(c.key("gauss") + ".skil",
                          apps::gauss_skil(c.p, c.n, seed_, false).run);
  }

 private:
  static constexpr const char* kLangs[3] = {"skil", "dpfl", "c"};
  struct System {
    support::Matrix<double> ab;
    std::vector<double> x;  ///< sequential solve
  };

  void check_solution(Pass& pass, const std::string& what, int n,
                      const std::vector<double>& padded) {
    if (padded.size() < static_cast<std::size_t>(n)) {
      pass.check(false, what + " returned " + std::to_string(padded.size()) +
                            " components, want " + std::to_string(n));
      return;
    }
    const System& s = systems_.at(n);
    const std::vector<double> x(padded.begin(), padded.begin() + n);
    const double residual = support::residual_inf(s.ab, x);
    const double diff = support::max_abs_diff(x, s.x);
    pass.check(residual <= 1e-9 && diff <= 1e-9,
               what + " residual " + std::to_string(residual) +
                   ", distance to the sequential solve " +
                   std::to_string(diff));
  }

  std::uint64_t seed_;
  bool wrong_;
  std::vector<Cell> cells_;
  std::map<int, System> systems_;
};

/// Paper Table 1 min-plus shortest paths, Skil / DPFL / the old Parix-C
/// version, at an n large enough that compute dominates.
class ShpathsT1 final : public Workload {
 public:
  ShpathsT1(std::uint64_t seed, bool small, bool wrong)
      : seed_(seed), wrong_(wrong) {
    if (small)
      cells_ = {{4, 24}};
    else
      cells_ = {{16, 320}, {64, 320}};
  }

  void setup() override {
    // The sequential closure for the smallest cell (the first).
    const int n = cells_.front().n;
    closure_ = support::seq_shortest_paths(
        support::random_distance_matrix(n, seed_));
    if (wrong_) closure_(0, 1) = closure_(0, 1) == 7 ? 8 : 7;
  }

  void run_pass(Pass& pass) override {
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      const Cell& c = cells_[ci];
      const std::string key = c.key("shpaths");
      ScopedSpan cell_span(pass.spans, key, pass.span_root);
      double vt[3] = {};
      support::Matrix<std::uint32_t> skil_dist;
      for (int lang = 0; lang < 3; ++lang) {
        const std::string name = kLangs[lang];
        ScopedSpan lang_span(pass.spans, name, cell_span.id());
        double host_s = 0.0;
        apps::ShpathsResult r = timed(host_s, [&] {
          if (lang == 0) return apps::shpaths_skil(c.p, c.n, seed_);
          if (lang == 1) return apps::shpaths_dpfl(c.p, c.n, seed_);
          return apps::shpaths_c(c.p, c.n, seed_, /*optimized=*/false);
        });
        pass.account(name, r.run, host_s);
        pass.vtime(key + "." + name, r.run.vtime_us, lang == 0);
        vt[lang] = r.run.vtime_us;
        if (lang == 0) {
          if (ci == 0) check_closure(pass, key, r.distances);
          skil_dist = std::move(r.distances);
        } else {
          pass.check(r.distances.storage() == skil_dist.storage(),
                     key + " " + name + " distances differ from Skil's");
        }
      }
      // The bands bench_table1_shpaths asserts (EXPERIMENTS.md T1).
      const double dpfl_over_skil = vt[1] / vt[0];
      pass.check(dpfl_over_skil >= 3.0 && dpfl_over_skil <= 10.0,
                 key + " DPFL/Skil " + std::to_string(dpfl_over_skil) +
                     " outside 3..10");
      pass.check(vt[0] < vt[2], key + " Skil does not beat the old C version");
    }
  }

  std::optional<std::pair<std::string, parix::RunResult>> full_trace_cell()
      override {
    const Cell& c = cells_.front();
    return std::make_pair(c.key("shpaths") + ".skil",
                          apps::shpaths_skil(c.p, c.n, seed_).run);
  }

 private:
  static constexpr const char* kLangs[3] = {"skil", "dpfl", "c"};

  void check_closure(Pass& pass, const std::string& key,
                     const support::Matrix<std::uint32_t>& dist) {
    const int n = closure_.rows();
    bool same = dist.rows() >= n && dist.cols() >= n;
    for (int i = 0; same && i < n; ++i)
      for (int j = 0; same && j < n; ++j) same = dist(i, j) == closure_(i, j);
    pass.check(same, key + " Skil distances differ from the sequential "
                           "min-plus closure");
  }

  std::uint64_t seed_;
  bool wrong_;
  std::vector<Cell> cells_;
  support::Matrix<std::uint32_t> closure_;
};

/// Jacobi heat stencil: many steps of tiny halo messages at p = 64.
/// The rod's initial profile is fixed by the app, so the seed changes
/// nothing here.
class StencilHalo final : public Workload {
 public:
  StencilHalo(bool small, bool wrong) : wrong_(wrong) {
    if (small) {
      p_ = 4, cells_ = 64, steps_ = 40, trace_steps_ = 10;
    } else {
      p_ = 64, cells_ = 4096, steps_ = 3000, trace_steps_ = 200;
    }
  }

  void setup() override {
    const int padded = apps::stencil_round_up(cells_, p_);
    std::vector<double> t(static_cast<std::size_t>(padded)), next(t.size());
    for (int i = 0; i < padded; ++i)
      t[i] = (i >= padded / 3 && i < 2 * padded / 3) ? 100.0 : 0.0;
    heat_ = 0.0;
    for (double v : t) heat_ += v;
    for (int step = 0; step < steps_; ++step) {
      for (int i = 0; i < padded; ++i) {
        const double up = t[i > 0 ? i - 1 : i];
        const double down = t[i < padded - 1 ? i + 1 : i];
        next[i] = 0.25 * up + 0.5 * t[i] + 0.25 * down;
      }
      std::swap(t, next);
    }
    profile_ = std::move(t);
    if (wrong_) heat_ += 1.0;
  }

  void run_pass(Pass& pass) override {
    const std::string key = "stencil.p" + std::to_string(p_) + "c" +
                            std::to_string(cells_) + "s" +
                            std::to_string(steps_);
    ScopedSpan cell_span(pass.spans, key, pass.span_root);
    ScopedSpan lang_span(pass.spans, "skil", cell_span.id());
    double host_s = 0.0;
    const apps::StencilResult r =
        timed(host_s, [&] { return apps::stencil_jacobi(p_, cells_, steps_); });
    pass.account("skil", r.run, host_s);
    pass.vtime(key + ".skil", r.run.vtime_us, true);

    pass.check(r.temps == profile_,
               key + " profile differs from the sequential stencil");
    pass.check(std::abs(r.total - heat_) <= 1e-9 * heat_,
               key + " heat not conserved: " + std::to_string(r.total) +
                   " vs " + std::to_string(heat_));
    double sum = 0.0, peak = 0.0;
    for (double v : r.temps) {
      sum += v;
      peak = std::max(peak, v);
    }
    pass.check(std::abs(r.total - sum) <= 1e-9 * sum && r.peak == peak,
               key + " folds disagree with the gathered profile");
  }

  std::optional<std::pair<std::string, parix::RunResult>> full_trace_cell()
      override {
    return std::make_pair(
        std::string("stencil.trace_cell"),
        apps::stencil_jacobi(p_, cells_, trace_steps_).run);
  }

 private:
  bool wrong_;
  int p_ = 0, cells_ = 0, steps_ = 0, trace_steps_ = 0;
  double heat_ = 0.0;
  std::vector<double> profile_;
};

std::uint64_t count_nodes(const skilc::Expr* e) {
  if (e == nullptr) return 0;
  std::uint64_t n = 1 + count_nodes(e->lhs.get()) + count_nodes(e->rhs.get()) +
                    count_nodes(e->callee.get());
  for (const skilc::ExprPtr& arg : e->args) n += count_nodes(arg.get());
  return n;
}

std::uint64_t count_nodes(const skilc::Stmt* s) {
  if (s == nullptr) return 0;
  std::uint64_t n = 1 + count_nodes(s->expr.get()) + count_nodes(s->init.get()) +
                    count_nodes(s->for_init.get());
  for (const skilc::StmtPtr& b : s->body) n += count_nodes(b.get());
  for (const skilc::StmtPtr& b : s->else_body) n += count_nodes(b.get());
  return n;
}

std::uint64_t count_nodes(const skilc::Program& program) {
  std::uint64_t n = program.pardatas.size();
  for (const skilc::Function& fn : program.functions) {
    n += 1 + fn.params.size();
    for (const skilc::StmtPtr& s : fn.body) n += count_nodes(s.get());
  }
  return n;
}

/// The whole skilc compile (skeletonize + fuse + instantiate + emit)
/// over the example programs and the lint fixtures, each file compiled
/// `repeats` times in a row.
class SkilcPipeline final : public Workload {
 public:
  SkilcPipeline(std::uint64_t seed, bool small, bool wrong, std::string root)
      : seed_(seed), small_(small), wrong_(wrong), root_(std::move(root)) {
    repeats_ = small ? 1 : 40;
  }

  void setup() override {
    namespace fs = std::filesystem;
    std::vector<fs::path> paths;
    for (const char* dir : {"examples/skil", "tests/lint_fixtures"}) {
      const fs::path d = fs::path(root_) / dir;
      if (!fs::is_directory(d))
        throw support::ContractError("no Skil sources at " + d.string());
      for (const auto& entry : fs::directory_iterator(d))
        if (entry.path().extension() == ".skil") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    if (small_) paths.resize(std::min<std::size_t>(paths.size(), 4));
    // Seeded Fisher-Yates (splitmix64), identical on every platform.
    std::uint64_t state = seed_;
    const auto next = [&state] {
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (std::size_t i = paths.size(); i > 1; --i)
      std::swap(paths[i - 1], paths[next() % i]);

    for (const fs::path& path : paths) {
      File f;
      f.name = path.filename().string();
      f.source = read_file(path);
      // A fixture is expected to be rejected exactly when its golden
      // lint rendering carries an error-level finding; the examples
      // all compile.
      fs::path golden = path;
      golden.replace_extension(".expected");
      f.expect_accept =
          !fs::exists(golden) || read_file(golden).find(": error: ") ==
                                     std::string::npos;
      // skilc::compile's own output: the stage-by-stage replica below
      // must emit the same C.
      skilc::CompileOptions options;
      options.skeletonize = true;
      options.fuse = true;
      try {
        f.reference_c = skilc::compile(f.source, options).c_code;
      } catch (const support::Error&) {
        // rejected; the verdict check covers it
      }
      files_.push_back(std::move(f));
    }
    if (wrong_) files_.front().expect_accept = !files_.front().expect_accept;
  }

  void run_pass(Pass& pass) override {
    for (File& f : files_) {
      ScopedSpan file_span(pass.spans, f.name, pass.span_root);
      const Outcome out = compile_file(pass, f, repeats_, file_span.id());
      pass.check(out.accepted == f.expect_accept,
                 f.name + (out.accepted ? " accepted" : " rejected") +
                     ", fixture expects " +
                     (f.expect_accept ? "accept" : "reject") +
                     (out.error.empty() ? "" : " (" + out.error + ")"));
      if (!out.accepted) continue;
      bool same = true;
      for (const std::string& c : out.c_code) same = same && c == out.c_code[0];
      pass.check(same && out.c_code[0] == f.reference_c,
                 f.name + " emitted C differs across repeats or from "
                          "skilc::compile");
    }
  }

 private:
  struct File {
    std::string name;
    std::string source;
    bool expect_accept = true;
    std::string reference_c;  ///< skilc::compile's C ("" if rejected)
  };
  struct Outcome {
    bool accepted = false;
    std::string error;
    std::vector<std::string> c_code;
  };

  static std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) throw support::ContractError("cannot read " + path.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Mirrors skilc::compile with skeletonize and fuse on, one public
  /// pass function at a time, for `copies` independent compiles of the
  /// file.  Every stage is timed; the first copy also records a span
  /// per stage under `parent`.
  Outcome compile_file(Pass& pass, const File& f, int copies, int parent) {
    Outcome out;
    skilc::AnalyzeOptions options;
    options.fusion = false;  // the rewrites below report these
    options.skeletonize = false;
    try {
      for (int copy = 0; copy < copies; ++copy) {
        SpanLog* spans = copy == 0 ? pass.spans : nullptr;
        const auto stage = [&](const char* name, auto&& body) {
          ScopedSpan span(spans, name, parent);
          const auto t0 = Clock::now();
          body();
          const double s = since(t0);
          pass.host[std::string("skilc.") + name + "_s"] += s;
          pass.wall_s += s;
        };
        skilc::Program program, instantiated;
        skilc::DiagnosticSink sink;
        skilc::SkeletonizeCounters rewrites;
        skilc::FusionStats fusion;
        stage("lex", [&] { skilc::lex(f.source); });
        stage("parse", [&] { program = skilc::parse(f.source); });
        stage("typecheck", [&] { skilc::typecheck(program); });
        stage("analyze", [&] { skilc::analyze(program, sink, options); });
        if (sink.has_errors())
          throw skilc::AnalysisError("error-level analysis finding");
        stage("skeletonize", [&] {
          rewrites = skilc::skeletonize_program(program, sink);
          if (rewrites.recognized() > 0) skilc::typecheck(program);
        });
        stage("fuse", [&] {
          fusion = skilc::fuse_program(program, sink);
          if (fusion.fused() > 0) skilc::typecheck(program);
        });
        stage("instantiate", [&] { instantiated = skilc::instantiate(program); });
        stage("emit", [&] { out.c_code.push_back(skilc::emit_program(instantiated)); });
        if (copy == 0) {
          pass.work["skilc.nodes_instantiated"] += count_nodes(instantiated);
          pass.work["skilc.c_bytes"] += out.c_code.front().size();
          pass.work["skilc.skeletonize_rewrites"] +=
              static_cast<std::uint64_t>(rewrites.recognized());
          pass.work["skilc.fusions"] += static_cast<std::uint64_t>(fusion.fused());
        }
      }
      out.accepted = true;
    } catch (const support::Error& e) {
      out.error = e.what();
      pass.work["skilc.rejected"] += 1;
    }
    pass.work["skilc.files"] += 1;
    return out;
  }

  std::uint64_t seed_;
  bool small_;
  bool wrong_;
  std::string root_;
  int repeats_ = 1;
  std::vector<File> files_;
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "gauss_t2")
    return std::make_unique<GaussT2>(opts.seed, opts.small, opts.wrong_expected);
  if (opts.workload == "shpaths_t1")
    return std::make_unique<ShpathsT1>(opts.seed, opts.small, opts.wrong_expected);
  if (opts.workload == "stencil_halo")
    return std::make_unique<StencilHalo>(opts.small, opts.wrong_expected);
  return std::make_unique<SkilcPipeline>(opts.seed, opts.small,
                                         opts.wrong_expected, opts.root);
}

// ------------------------------------------------------------------ run

/// Repeats passes until `budget_s` is used up (at least one pass): a
/// new pass starts only when the mean pass so far still fits.
void run_phase(Workload& wl, double budget_s, SpanLog* spans, bool print_cells,
               std::vector<Pass>& passes) {
  parix::set_default_prof_mode(spans ? parix::ProfMode::kCounters
                                     : parix::ProfMode::kOff);
  const auto t0 = Clock::now();
  int done = 0;
  do {
    Pass pass;
    pass.spans = spans;
    pass.print_cells = print_cells && done == 0;
    {
      ScopedSpan top(spans, "pass", -1);
      pass.span_root = top.id();
      wl.run_pass(pass);
    }
    passes.push_back(std::move(pass));
    ++done;
  } while (since(t0) * (done + 1) / done <= budget_s);
  parix::set_default_prof_mode(parix::ProfMode::kOff);
}

/// Host times are reported from the run's fastest pass.  The host is a
/// shared VM whose cores slow down by up to 1.8x in phases lasting
/// seconds to minutes; the fastest pass follows the cost of the work,
/// a median follows the neighbours (README.md, "Noise").
const Pass& fastest(const std::vector<Pass>& passes) {
  return *std::min_element(
      passes.begin(), passes.end(),
      [](const Pass& a, const Pass& b) { return a.wall_s < b.wall_s; });
}

template <class Get>
std::vector<double> per_pass(const std::vector<Pass>& passes, Get get) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(get(p));
  return v;
}

double host_value(const Pass& pass, const std::string& key) {
  const auto it = pass.host.find(key);
  return it == pass.host.end() ? 0.0 : it->second;
}

double work(const Pass& pass, const std::string& key) {
  const auto it = pass.work.find(key);
  return it == pass.work.end() ? 0.0 : static_cast<double>(it->second);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of a traced run.  Metrics a workload does not
/// exercise read 0.  Host times come from the fastest traced pass, so
/// they add up to its wall; schedule-dependent counts and ratios are
/// medians over the traced passes.
std::vector<Metric> layer_metrics(const std::vector<Pass>& untraced,
                                  const std::vector<Pass>& traced,
                                  double traced_wall_s, const SpanLog& spans,
                                  const parix::CriticalPath* path) {
  std::vector<Metric> m;
  const Pass& w = traced.front();  // work counts repeat (checked)
  const Pass& f = fastest(traced);
  const auto time_of = [&](const std::string& key) { return host_value(f, key); };
  const auto count_of = [&](const std::string& key) {
    return median(
        per_pass(traced, [&](const Pass& p) { return host_value(p, key); }));
  };
  const double skil = time_of("apps.skil_s"), dpfl = time_of("apps.dpfl_s"),
               c = time_of("apps.c_s");
  m.push_back({"apps.skil_s", skil, "s"});
  m.push_back({"apps.dpfl_s", dpfl, "s"});
  m.push_back({"apps.c_s", c, "s"});
  m.push_back({"apps.skil_over_c_host", ratio(skil, c), "ratio"});
  m.push_back({"parix.spmd_s", time_of("parix.spmd_s"), "s"});
  const double msgs = work(w, "parix.msgs");
  m.push_back({"parix.msgs", msgs, "count"});
  m.push_back({"parix.bytes", work(w, "parix.bytes"), "B"});
  m.push_back({"parix.host_ns_per_msg", ratio((skil + dpfl + c) * 1e9, msgs),
               "ns/msg"});
  const double coll_calls = work(w, "parix.coll.calls");
  m.push_back({"parix.coll.calls", coll_calls, "count"});
  m.push_back({"parix.coll.ring_share",
               ratio(work(w, "parix.coll.ring_calls"), coll_calls), "ratio"});
  m.push_back({"parix.coll.hops", work(w, "parix.coll.hops"), "count"});
  m.push_back({"parix.settle.closed_coverage",
               ratio(count_of("parix.settle.closed_adds"),
                     work(w, "parix.settle.adds")),
               "ratio"});
  m.push_back({"parix.settle.memo_hit_ratio",
               ratio(count_of("parix.settle.memo_hits"),
                     work(w, "parix.settle.memo_lookups")),
               "ratio"});
  m.push_back({"parix.settle.chain_adds", work(w, "parix.settle.chain_adds"),
               "count"});
  for (const char* op : {"call", "indirect_call", "alloc", "copy_word"})
    m.push_back({std::string("ops.") + op, work(w, std::string("ops.") + op),
                 "count"});
  for (const char* stage : {"lex", "parse", "typecheck", "analyze",
                            "skeletonize", "fuse", "instantiate", "emit"})
    m.push_back({std::string("skilc.") + stage + "_s",
                 time_of(std::string("skilc.") + stage + "_s"), "s"});
  for (const char* size : {"nodes_instantiated", "c_bytes",
                           "skeletonize_rewrites", "fusions"})
    m.push_back({std::string("skilc.") + size,
                 work(w, std::string("skilc.") + size), "count"});

  using T = parix::SchedulerTotals;
  const auto sched = [&](auto get) {
    return per_pass(traced, [&](const Pass& p) { return get(p.sched); });
  };
  m.push_back({"exec.run_ns", double(f.sched.run_ns), "ns"});
  m.push_back({"exec.settle_ns", double(f.sched.settle_ns), "ns"});
  m.push_back({"exec.steal_success_ratio", median(sched([](const T& t) {
                 return ratio(double(t.steal_successes), double(t.steal_attempts));
               })),
               "ratio"});
  m.push_back({"exec.parks",
               median(sched([](const T& t) { return double(t.parks); })),
               "count"});
  m.push_back({"exec.fibers_resumed", median(sched([](const T& t) {
                 return double(t.fibers_resumed);
               })),
               "count"});
  m.push_back({"exec.pool_hit_ratio", median(sched([](const T& t) {
                 return ratio(double(t.pool_hits), double(t.pool_acquires));
               })),
               "ratio"});

  m.push_back({"vtime_s", w.skil_vtime_us * 1e-6, "model_s"});
  m.push_back({"vtime.compute_s", path ? path->compute_us * 1e-6 : 0.0, "model_s"});
  m.push_back({"vtime.send_s", path ? path->send_us * 1e-6 : 0.0, "model_s"});
  m.push_back({"vtime.recv_s", path ? path->recv_us * 1e-6 : 0.0, "model_s"});
  m.push_back({"vtime.wire_s", path ? path->wire_us * 1e-6 : 0.0, "model_s"});

  m.push_back({"trace.wall_s", f.wall_s, "s"});
  m.push_back({"trace.overhead_s", f.wall_s - fastest(untraced).wall_s, "s"});
  m.push_back({"trace.top_coverage",
               ratio(spans.top_level_seconds(), traced_wall_s), "ratio"});
  return m;
}

/// One check per pass after the first: its deterministic work counts
/// (vtime bits included) equal the first pass's.
void check_repeats(std::vector<Pass>& passes) {
  const Pass& first = passes.front();
  for (std::size_t i = 1; i < passes.size(); ++i) {
    std::string diff;
    for (const auto& [key, value] : passes[i].work) {
      const auto it = first.work.find(key);
      if (it == first.work.end() || it->second != value)
        diff += " " + key + "=" + std::to_string(value) + " (first pass " +
                (it == first.work.end() ? std::string("absent")
                                        : std::to_string(it->second)) +
                ")";
    }
    if (passes[i].work.size() != first.work.size()) diff += " (key sets differ)";
    passes[i].check(diff.empty(),
                    "work counts of pass " + std::to_string(i) +
                        " differ from pass 0:" + diff);
  }
}

/// Runs the workload's TraceMode::kFull cell and splits its critical
/// path, booking the checks on `checks`.
std::optional<parix::CriticalPath> critical_path(Workload& wl,
                                                 const Pass& untraced,
                                                 Pass& checks) {
  parix::set_default_trace_mode(parix::TraceMode::kFull);
  auto cell = wl.full_trace_cell();
  parix::set_default_trace_mode(parix::TraceMode::kOff);
  if (!cell) return std::nullopt;
  const parix::RunResult& run = cell->second;
  parix::CriticalPath path = parix::analyze_critical_path(*run.trace);
  // The telescoped endpoint is exact; the per-kind sums re-associate
  // the segment additions, so they match to rounding only.
  const double parts = path.compute_us + path.send_us + path.recv_us + path.wire_us;
  checks.check(path.total_us == run.vtime_us,
               "critical path does not end at the cell's vtime");
  checks.check(std::abs(parts - run.vtime_us) <= 1e-9 * run.vtime_us,
               "critical-path parts sum to " + std::to_string(parts) +
                   " us, cell vtime " + std::to_string(run.vtime_us));
  std::printf("critical_path %s vtime_us=%.17g compute_us=%.17g send_us=%.17g "
              "recv_us=%.17g wire_us=%.17g parts_minus_vtime_us=%.17g\n",
              cell->first.c_str(), run.vtime_us, path.compute_us, path.send_us,
              path.recv_us, path.wire_us, parts - run.vtime_us);
  // Tracing must not move modeled time.
  const auto it = untraced.work.find("vtime_bits." + cell->first);
  if (it != untraced.work.end()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &run.vtime_us, sizeof bits);
    checks.check(bits == it->second, "traced vtime differs from the untraced one");
  }
  return path;
}

void print_pass_walls(const char* phase, const std::vector<Pass>& passes) {
  std::printf("pass_wall_s %s", phase);
  for (const Pass& p : passes) std::printf(" %.6f", p.wall_s);
  std::printf("\n");
}

struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void count(const Pass& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Result untraced_run(Workload& wl, const Options& opts) {
  std::vector<Pass> passes;
  run_phase(wl, opts.seconds, nullptr, true, passes);
  check_repeats(passes);
  print_pass_walls("untraced", passes);
  Result result;
  for (const Pass& p : passes) result.count(p);
  result.metrics = {{"wall_s", fastest(passes).wall_s, "s"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
  return result;
}

Result traced_run(Workload& wl, const Options& opts, const std::string& host) {
  std::vector<Pass> untraced, traced;
  run_phase(wl, opts.seconds / 2, nullptr, true, untraced);
  const auto epoch = Clock::now();
  SpanLog spans(epoch);
  run_phase(wl, opts.seconds / 2, &spans, false, traced);
  Pass cp_checks;
  std::optional<parix::CriticalPath> path;
  {
    ScopedSpan top(&spans, "critical_path", -1);
    path = critical_path(wl, untraced.front(), cp_checks);
  }
  const double traced_wall_s = since(epoch);

  std::vector<Pass> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  check_repeats(all);
  print_pass_walls("untraced", untraced);
  print_pass_walls("traced", traced);
  Result result;
  for (const Pass& p : all) result.count(p);
  result.count(cp_checks);
  result.metrics = layer_metrics(untraced, traced, traced_wall_s, spans,
                                 path ? &*path : nullptr);

  namespace fs = std::filesystem;
  fs::create_directories(opts.trace_dir);
  const fs::path out_path = fs::path(opts.trace_dir) /
                            ("spans_" + opts.workload + "_seed" +
                             std::to_string(opts.seed) + ".json");
  std::ofstream out(out_path);
  out << "{\"workload\":\"" << opts.workload << "\",\"seed\":" << opts.seed
      << ",\"host\":" << host << ",\"traced_wall_ns\":"
      << static_cast<std::int64_t>(traced_wall_s * 1e9) << ",\"spans\":";
  spans.write_json(out);
  out << "}\n";
  if (!out) throw support::ContractError("cannot write " + out_path.string());
  std::printf("spans %s\n", out_path.string().c_str());
  return result;
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string host_json(const Options& opts, int cores) {
  std::ostringstream os;
  os << "{\"nproc\":" << cores << ",\"carriers\":" << parix::executor_carriers()
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << PERFBENCH_COMPILER << "\",\"commit\":\"" << opts.commit << "\"}";
  return os.str();
}

int run(const Options& opts) {
  for (char** env = environ; *env != nullptr; ++env)
    if (std::strncmp(*env, "SKIL_", 5) == 0)
      throw support::ContractError(
          std::string("the benchmark runs every knob at its default; unset ") +
          *env);
  const int cores = usable_cores();
  parix::set_default_execution_engine(parix::ExecutionEngine::kPooled);
  parix::executor_set_carriers(std::min(cores, kMaxCarriers));
  const std::string host = host_json(opts, cores);
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  std::unique_ptr<Workload> wl = make_workload(opts);
  wl->setup();
  {
    // Warm-up: one unrecorded pass lets lazy set-up finish (pool spawn,
    // buffer pools, first-touch pages) before anything is timed.
    Pass warmup;
    wl->run_pass(warmup);
  }
  std::printf("ready\n");
  std::fflush(stdout);
  if (opts.setup_only) return 0;

  const Result result =
      opts.trace ? traced_run(*wl, opts, host) : untraced_run(*wl, opts);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skil_perfbench: error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "skil_perfbench: error: unknown exception\n");
  }
  return 1;
}
