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

// Fiber context switches are invisible to thread/address sanitizers
// unless annotated, so sanitizer builds default to the threads engine
// (SKIL_ENGINE=pooled still forces the pool for targeted debugging).
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

  // Host-timeline profiling (parix/prof.h): size the carrier registry
  // before the run so the scheduler's counter sites never index past
  // it, then activate the sites for the duration of the run (RAII --
  // the failure rethrow below must not leave them hot).  In sampled
  // mode the sampler thread shares the trace's wall epoch when one
  // exists, so host lanes and virtual lanes line up in a merged view.
  const bool prof_on = config.prof != ProfMode::kOff;
  const bool prof_pooled = prof_on && engine == ExecutionEngine::kPooled;
  if (prof_pooled) executor_prof_prepare();
  const ProfActivation prof_active(prof_on);
  const RegistrySnapshot prof_before =
      prof_on ? prof_snapshot() : RegistrySnapshot{};
  const PoolCounters pool_before =
      prof_on ? prof_pool_counters() : PoolCounters{};
  std::unique_ptr<ProfSampler> sampler;
  if (config.prof == ProfMode::kSampled && prof_pooled) {
    const auto prof_epoch =
        trace ? trace->wall_epoch : std::chrono::steady_clock::now();
    sampler = std::make_unique<ProfSampler>(prof_epoch, executor_carriers());
  }

  std::exception_ptr first_failure;
  const SettleCounters settle_before = settle_counters();
  const std::uint64_t inline_before = inline_settle_adds();
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
  {
    const SettleCounters s = settle_counters();
    result.settle.closed_runs = s.closed_runs - settle_before.closed_runs;
    result.settle.closed_adds = s.closed_adds - settle_before.closed_adds;
    result.settle.memo_hits = s.memo_hits - settle_before.memo_hits;
    result.settle.memo_misses = s.memo_misses - settle_before.memo_misses;
    result.settle.memo_adds = s.memo_adds - settle_before.memo_adds;
    result.settle.probe_adds = s.probe_adds - settle_before.probe_adds;
    result.settle.chain_records =
        s.chain_records - settle_before.chain_records;
    result.settle.chain_adds = s.chain_adds - settle_before.chain_adds;
    result.gang.inline_adds = inline_settle_adds() - inline_before;
    const FusionCounters f = fusion_counters();
    result.fusion.seen = f.seen - fusion_before.seen;
    result.fusion.fused = f.fused - fusion_before.fused;
    result.fusion.rejected_shape =
        f.rejected_shape - fusion_before.rejected_shape;
    result.fusion.rejected_order =
        f.rejected_order - fusion_before.rejected_order;
    result.fusion.rejected_path =
        f.rejected_path - fusion_before.rejected_path;
    result.fusion.barriers_eliminated =
        f.barriers_eliminated - fusion_before.barriers_eliminated;
    result.fusion.tapes_eliminated =
        f.tapes_eliminated - fusion_before.tapes_eliminated;
  }
  if (prof_on) {
    if (sampler) result.prof = sampler->stop();
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
    const RegistrySnapshot after = prof_snapshot();
    for (int i = 0;
         i < carriers && i < static_cast<int>(after.lanes.size()); ++i) {
      const RegistrySnapshot::Lane before =
          i < static_cast<int>(prof_before.lanes.size())
              ? prof_before.lanes[static_cast<std::size_t>(i)]
              : RegistrySnapshot::Lane{};
      const RegistrySnapshot::Lane& now =
          after.lanes[static_cast<std::size_t>(i)];
      CarrierReport lane;
      lane.fibers_run = now.fibers_run - before.fibers_run;
      lane.fibers_resumed = now.fibers_resumed - before.fibers_resumed;
      lane.steal_attempts = now.steal_attempts - before.steal_attempts;
      lane.steal_successes = now.steal_successes - before.steal_successes;
      lane.steal_failed_rounds =
          now.steal_failed_rounds - before.steal_failed_rounds;
      lane.parks = now.parks - before.parks;
      lane.unparks = now.unparks - before.unparks;
      lane.run_ns = now.run_ns - before.run_ns;
      sched.per_carrier.push_back(lane);
    }
    const PoolCounters pool_after = prof_pool_counters();
    sched.pool.acquires = pool_after.acquires - pool_before.acquires;
    sched.pool.hits = pool_after.hits - pool_before.hits;
    sched.pool.misses = pool_after.misses - pool_before.misses;
    sched.pool.bytes = pool_after.bytes - pool_before.bytes;
    // Tape-memo stats are already exact per-run deltas (SettleCounters
    // above); surfaced here so the scheduler report is self-contained.
    sched.memo_hits = result.settle.memo_hits;
    sched.memo_misses = result.settle.memo_misses;
    sched.samples =
        result.prof ? static_cast<std::uint64_t>(result.prof->samples.size())
                    : 0;
  }
  return result;
}

}  // namespace skil::parix
