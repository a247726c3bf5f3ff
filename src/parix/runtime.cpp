#include "parix/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <exception>
#include <filesystem>
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

void require_env_knobs(std::string_view program) {
  try {
    default_execution_engine();
    default_charge_path();
    default_settle_mode();
    default_fuse_mode();
    default_trace_mode();
    default_prof_mode();
    default_coll_mode();
    executor_carriers();
  } catch (const support::ContractError& err) {
    std::fprintf(stderr, "%s: %s\n",
                 std::filesystem::path(program).filename().c_str(),
                 err.what());
    std::exit(2);
  }
}

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

  // Host scheduler counters (parix/prof.h): a profiled pooled run
  // gets its carrier lanes back from the executor.
  const ProfMode prof = default_prof_mode();
  std::vector<CarrierReport> lanes;

  std::exception_ptr first_failure;
  const auto wall_start = std::chrono::steady_clock::now();
  if (engine == ExecutionEngine::kPooled) {
    machine.set_fiber_wait(true);
    first_failure = executor_run(machine, procs, body,
                                 prof != ProfMode::kOff ? &lanes : nullptr);
  } else {
    first_failure = run_on_threads(machine, procs, body);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  if (first_failure) std::rethrow_exception(first_failure);

  if (trace)
    for (int p = 0; p < config.nprocs; ++p)
      trace->procs[p].finalize(procs[p]->vtime());

  // Every counter belongs to the processor that booked it; the run's
  // are their sums.  Reading vtime() settles the ledger first, so the
  // settle counters are final here.
  RunResult result;
  PoolCounters pool;
  result.proc_vtimes.reserve(config.nprocs);
  result.proc_stats.reserve(config.nprocs);
  for (const auto& proc : procs) {
    result.proc_vtimes.push_back(proc->vtime());
    result.proc_stats.push_back(proc->stats());
    result.total += proc->stats();
    result.coll += proc->coll_counters();
    support::add(result.settle, proc->settle_counters());
    support::add(result.fusion, proc->fusion_counters());
    support::add(pool, proc->pool_counters());
  }
  result.vtime_us =
      *std::max_element(result.proc_vtimes.begin(), result.proc_vtimes.end());
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.trace = std::move(trace);
  result.gang.inline_adds = result.settle.inline_adds;
  if (prof != ProfMode::kOff) {
    SchedulerReport& sched = result.scheduler;
    sched.mode = prof;
    sched.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                             wall_start)
            .count());
    sched.carriers = static_cast<int>(lanes.size());
    sched.per_carrier = std::move(lanes);
    sched.pool = pool;
  }
  return result;
}

}  // namespace skil::parix
