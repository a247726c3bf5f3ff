#include "parix/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "parix/executor.h"
#include "parix/machine.h"
#include "support/env.h"
#include "support/error.h"

// Sanitizer builds default to the threads engine, the differential
// oracle; the pooled engine's fiber switches are annotated for the
// sanitizers, and SKIL_ENGINE=pooled forces it (see runtime.h).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SKIL_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SKIL_SANITIZED_BUILD 1
#endif
#endif

namespace skil::parix {

namespace {

ExecutionEngine initial_default_engine() {
  if (const char* env = std::getenv("SKIL_ENGINE"))
    return parse_execution_engine(env);
#ifdef SKIL_SANITIZED_BUILD
  return ExecutionEngine::kThreads;
#else
  return ExecutionEngine::kPooled;
#endif
}

ExecutionEngine& default_engine_slot() {
  static ExecutionEngine engine = initial_default_engine();
  return engine;
}

}  // namespace

ExecutionEngine parse_execution_engine(std::string_view name) {
  static constexpr std::string_view kNames[] = {"threads", "pooled"};
  static_assert(static_cast<int>(ExecutionEngine::kThreads) == 0 &&
                static_cast<int>(ExecutionEngine::kPooled) == 1);
  return support::parse_knob<ExecutionEngine>("SKIL_ENGINE",
                                              "execution engine", name, kNames);
}

namespace {

/// The per-step skeleton allocations (fresh FArray partitions, rotate
/// buffers) are a few MB each -- above glibc's default mmap threshold,
/// so every step would pay page faults on first touch and an munmap on
/// free.  Pinning the threshold keeps those blocks on the free lists,
/// where they recycle instantly.  Host-side only; virtual times do not
/// observe the allocator.
void tune_host_allocator() {
#ifdef __GLIBC__
  static const bool done = [] {
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)done;
#endif
}

/// Legacy engine: one OS thread per virtual processor.  Kept as the
/// differential-testing oracle for the pooled engine.
std::exception_ptr run_on_threads(Machine& machine,
                                  const std::vector<std::unique_ptr<Proc>>& procs,
                                  const detail::BodyRef& body) {
  std::mutex failure_mutex;
  std::exception_ptr first_failure;
  {
    std::vector<std::jthread> threads;
    threads.reserve(procs.size());
    for (const auto& proc_ptr : procs) {
      Proc* proc = proc_ptr.get();
      threads.emplace_back([&, proc] {
        try {
          body(*proc);
        } catch (...) {
          {
            const std::scoped_lock lock(failure_mutex);
            if (!first_failure) first_failure = std::current_exception();
          }
          machine.poison_all("processor " + std::to_string(proc->id()) +
                             " terminated with an error");
        }
      });
    }
  }  // jthreads join here
  return first_failure;
}

}  // namespace

ExecutionEngine default_execution_engine() { return default_engine_slot(); }

void set_default_execution_engine(ExecutionEngine engine) {
  default_engine_slot() = engine;
}

RunResult spmd_run_ref(const RunConfig& config, const detail::BodyRef& body) {
  SKIL_REQUIRE(config.nprocs >= 1, "spmd_run: need at least one processor");
  tune_host_allocator();
  Machine machine(config.nprocs, config.cost);

  std::vector<std::unique_ptr<Proc>> procs;
  procs.reserve(config.nprocs);
  for (int p = 0; p < config.nprocs; ++p) {
    procs.push_back(std::make_unique<Proc>(machine, p));
    procs.back()->set_settle_mode(config.settle);
    procs.back()->set_fuse_mode(config.fuse);
    procs.back()->set_coll_mode(config.coll);
  }

  ExecutionEngine engine = config.engine;
  // A body that itself calls spmd_run would deadlock the fiber pool
  // (the outer run holds it); nested runs drop to the threads engine.
  if (engine == ExecutionEngine::kPooled && executor_in_fiber())
    engine = ExecutionEngine::kThreads;

  // Trace recorders attach before any processor starts; each Proc's
  // buffer is then touched only by the fiber/thread driving that Proc.
  std::shared_ptr<Trace> trace;
  if (config.trace != TraceMode::kOff) {
    trace = std::make_shared<Trace>();
    trace->mode = config.trace;
    trace->nprocs = config.nprocs;
    trace->wall_epoch = std::chrono::steady_clock::now();
    trace->procs.resize(config.nprocs);
    const bool full = config.trace == TraceMode::kFull;
    for (int p = 0; p < config.nprocs; ++p) {
      trace->procs[p].configure(p, full, trace->wall_epoch);
      procs[p]->set_trace(&trace->procs[p]);
    }
  }

  // Host scheduler counters (parix/prof.h): size the carrier registry
  // before the run so the scheduler's counter sites never index past
  // it, then activate the sites for the duration of the run (RAII --
  // the failure rethrow below must not leave them hot).
  const bool prof_on = config.prof != ProfMode::kOff;
  const bool prof_pooled = prof_on && engine == ExecutionEngine::kPooled;
  if (prof_pooled) executor_prof_prepare();
  const ProfActivation prof_active(prof_on);
  const std::vector<CarrierReport> prof_before =
      prof_on ? prof_snapshot() : std::vector<CarrierReport>{};
  const PoolCounters pool_before =
      prof_on ? prof_pool_counters() : PoolCounters{};

  std::exception_ptr first_failure;
  const SettleCounters settle_before = settle_counters();
  const FusionCounters fusion_before = fusion_counters();
  const auto wall_start = std::chrono::steady_clock::now();
  if (engine == ExecutionEngine::kPooled) {
    machine.set_fiber_wait(true);
    first_failure = executor_run(machine, procs, body);
  } else {
    first_failure = run_on_threads(machine, procs, body);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  if (first_failure) std::rethrow_exception(first_failure);

  if (trace)
    for (int p = 0; p < config.nprocs; ++p)
      trace->procs[p].finalize(procs[p]->vtime());

  RunResult result;
  result.proc_vtimes.reserve(config.nprocs);
  result.proc_stats.reserve(config.nprocs);
  for (const auto& proc : procs) {
    result.proc_vtimes.push_back(proc->vtime());
    result.proc_stats.push_back(proc->stats());
    result.total += proc->stats();
    result.coll += proc->coll_counters();
  }
  result.vtime_us =
      *std::max_element(result.proc_vtimes.begin(), result.proc_vtimes.end());
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.trace = std::move(trace);
  // Counter deltas over the run window (process-wide atomics; see the
  // RunResult field comments for the concurrency caveat).
  result.settle = support::sub(settle_counters(), settle_before);
  result.gang.inline_adds = result.settle.inline_adds;
  result.fusion = support::sub(fusion_counters(), fusion_before);
  if (prof_on) {
    SchedulerReport& sched = result.scheduler;
    sched.mode = config.prof;
    sched.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                             wall_start)
            .count());
    // Per-carrier deltas, trimmed to the carriers that actually ran
    // (the registry never shrinks, so stale wider lanes are all-zero).
    const int carriers = prof_pooled ? executor_carriers() : 0;
    sched.carriers = carriers;
    const std::vector<CarrierReport> after = prof_snapshot();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(carriers) && i < after.size(); ++i)
      sched.per_carrier.push_back(support::sub(
          after[i], i < prof_before.size() ? prof_before[i] : CarrierReport{}));
    sched.pool = support::sub(prof_pool_counters(), pool_before);
  }
  return result;
}

}  // namespace skil::parix
