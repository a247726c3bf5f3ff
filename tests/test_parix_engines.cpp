// Tests for the execution engines: golden virtual times pinned from
// the original one-thread-per-processor implementation, differential
// determinism between the threads and pooled engines, bulk-charge
// identity, deadlock detection, scheduler churn under stress, and the
// templated spmd_run overload.
//
// The golden values (hexfloat, bit-exact) were captured from the seed
// implementation; any engine or skeleton change that moves one of them
// has changed the scientific artefact, not just the host performance.
#include <gtest/gtest.h>

#include <sched.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <utility>
#include <vector>

#include "apps/gauss.h"
#include "apps/shortest_paths.h"
#include "parix/executor.h"
#include "parix/runtime.h"
#include "parix_golden_cases.h"
#include "support/env.h"
#include "support/error.h"

namespace {

using namespace skil;
using namespace skil::parix;

using skil::testing::GoldenCase;
using skil::testing::golden_cases;
using skil::testing::with_engine;

// --- golden virtual times -------------------------------------------------

TEST(EngineGolden, PooledEngineReproducesSeedVirtualTimes) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const RunResult r =
        with_engine(ExecutionEngine::kPooled, [&] { return c.run(); });
    EXPECT_EQ(r.vtime_us, c.vtime_us);
    EXPECT_EQ(r.proc_vtimes, c.proc_vtimes);
    EXPECT_EQ(r.total.messages_sent, c.messages_sent);
    EXPECT_EQ(r.total.bytes_sent, c.bytes_sent);
    EXPECT_EQ(r.total.compute_us, c.compute_us);
    EXPECT_EQ(r.total.comm_us, c.comm_us);
  }
}

TEST(EngineGolden, ThreadsEngineReproducesSeedVirtualTimes) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const RunResult r =
        with_engine(ExecutionEngine::kThreads, [&] { return c.run(); });
    EXPECT_EQ(r.vtime_us, c.vtime_us);
    EXPECT_EQ(r.proc_vtimes, c.proc_vtimes);
  }
}

// --- differential determinism ---------------------------------------------

TEST(EngineDifferential, EnginesAgreeBitForBitOnAllApps) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const RunResult threads =
        with_engine(ExecutionEngine::kThreads, [&] { return c.run(); });
    const RunResult pooled =
        with_engine(ExecutionEngine::kPooled, [&] { return c.run(); });
    EXPECT_EQ(threads.vtime_us, pooled.vtime_us);
    EXPECT_EQ(threads.proc_vtimes, pooled.proc_vtimes);
    ASSERT_EQ(threads.proc_stats.size(), pooled.proc_stats.size());
    for (std::size_t p = 0; p < threads.proc_stats.size(); ++p)
      EXPECT_EQ(threads.proc_stats[p], pooled.proc_stats[p]);
  }
}

TEST(EngineDifferential, ExplicitRunConfigEngineOverridesDefault) {
  auto body = [](Proc& proc) {
    proc.charge(Op::kFloatOp, 100 * (proc.id() + 1));
    const int next = (proc.id() + 1) % proc.nprocs();
    const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
    proc.send<double>(next, 1, proc.id() * 1.5);
    proc.recv<double>(prev, 1);
  };
  RunConfig threads_config{6, CostModel::t800(), ExecutionEngine::kThreads};
  RunConfig pooled_config{6, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult threads = spmd_run(threads_config, body);
  const RunResult pooled = spmd_run(pooled_config, body);
  EXPECT_EQ(threads.proc_vtimes, pooled.proc_vtimes);
}

// --- bulk cost accounting -------------------------------------------------

TEST(ChargeElems, BitIdenticalToPlainCharge) {
  // charge_elems(kind, elems, ops) must equal charge(kind, elems * ops)
  // to the last bit: one multiply, one addition, same order.
  RunConfig config{1, CostModel::t800()};
  const RunResult plain = spmd_run(config, [](Proc& proc) {
    proc.charge(Op::kFloatOp, 37 * 19);
    proc.charge(Op::kIntOp, 1001);
    proc.charge(Op::kCopyWord, 2 * 12345);
  });
  const RunResult bulk = spmd_run(config, [](Proc& proc) {
    proc.charge_elems(Op::kFloatOp, 37, 19);
    proc.charge_elems(Op::kIntOp, 1001);
    proc.charge_elems(Op::kCopyWord, 12345, 2);
  });
  EXPECT_EQ(plain.vtime_us, bulk.vtime_us);
  EXPECT_EQ(plain.total.ops, bulk.total.ops);
  EXPECT_EQ(plain.total.compute_us, bulk.total.compute_us);
}

// --- pooled-engine specifics ----------------------------------------------

TEST(PooledEngine, DetectsAllProcessorsBlockedAsDeadlock) {
  // Both processors wait for a message nobody sends.  The pooled
  // scheduler sees every live fiber parked and poisons the machine
  // instead of hanging until the mailbox timeout.
  RunConfig config{2, CostModel::t800(), ExecutionEngine::kPooled};
  EXPECT_THROW(spmd_run(config,
                        [](Proc& proc) {
                          proc.recv<int>(1 - proc.id(), 42);
                        }),
               support::RuntimeFault);
}

TEST(PooledEngine, DetectsDeadlockCompletedByAFinishingProcessor) {
  // Processors 0 and 1 wait for processor 2, which returns without
  // sending.  On one carrier they park first and processor 2 finishes
  // last, so it is the finish, not a park, that leaves every live
  // fiber parked -- the scheduler must notice that too.
  executor_set_carriers(1);
  RunConfig config{3, CostModel::t800(), ExecutionEngine::kPooled};
  EXPECT_THROW(spmd_run(config,
                        [](Proc& proc) {
                          if (proc.id() < 2) proc.recv<int>(2, 7);
                        }),
               support::RuntimeFault);
  executor_set_carriers(0);  // restore the SKIL_CARRIERS / hw default
}

TEST(PooledEngine, SurvivesManyMoreProcessorsThanHostThreads) {
  RunConfig config{64, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult r = spmd_run(config, [](Proc& proc) {
    const int next = (proc.id() + 1) % proc.nprocs();
    const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
    proc.send<int>(next, 1, proc.id());
    EXPECT_EQ(proc.recv<int>(prev, 1), prev);
  });
  EXPECT_EQ(r.proc_vtimes.size(), 64u);
}

TEST(PooledEngine, NestedSpmdRunFallsBackToThreads) {
  // A body that itself calls spmd_run must not deadlock the pool.
  RunConfig outer{2, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult r = spmd_run(outer, [](Proc& proc) {
    RunConfig inner{2, CostModel::t800(), ExecutionEngine::kPooled};
    const RunResult nested = spmd_run(inner, [](Proc& inner_proc) {
      inner_proc.charge(Op::kIntOp, 10);
    });
    proc.charge_us(nested.vtime_us);
  });
  EXPECT_GT(r.vtime_us, 0.0);
}

TEST(PooledEngine, RepeatedRunsReuseThePool) {
  // Many small runs exercise fiber recycling; vtimes stay identical.
  RunConfig config{8, CostModel::t800(), ExecutionEngine::kPooled};
  auto body = [](Proc& proc) {
    const int next = (proc.id() + 1) % proc.nprocs();
    const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
    proc.send<int>(next, 1, proc.id());
    proc.recv<int>(prev, 1);
  };
  const RunResult first = spmd_run(config, body);
  for (int i = 0; i < 20; ++i) {
    const RunResult again = spmd_run(config, body);
    ASSERT_EQ(first.proc_vtimes, again.proc_vtimes);
  }
}

// The default carrier count follows the CPU affinity mask (what
// taskset and nproc report), not the machine's hardware threads.
TEST(PooledEngine, DefaultCarriersFollowTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  EXPECT_EQ(support::host_cores(), 1);
  if (std::getenv("SKIL_CARRIERS") == nullptr) {
    executor_set_carriers(0);  // drop the pool: the count resolves anew
    EXPECT_EQ(executor_carriers(), 1);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(support::host_cores(), CPU_COUNT(&saved));
  executor_set_carriers(0);  // respawn under the restored mask
}

// --- scheduler churn and failure stress ----------------------------------

constexpr int kHaloProcs = 64;
constexpr int kHaloSteps = 200;
constexpr int kHaloCells = 8;

struct HaloRun {
  RunResult run;
  std::vector<std::vector<double>> cells;  // per processor, halo-free
};

/// A p = 64 Jacobi halo ring on fresh tags: every step each processor
/// sends its edge cells to both neighbours and parks until theirs
/// arrive -- the park/wake churn of the stencil workload.
HaloRun halo_ring(ExecutionEngine engine) {
  std::vector<std::vector<double>> cells(kHaloProcs);
  RunConfig config{kHaloProcs, CostModel::t800(), engine};
  RunResult run = spmd_run(config, [&cells](Proc& proc) {
    const int p = proc.nprocs();
    const int id = proc.id();
    const int left = (id + p - 1) % p;
    const int right = (id + 1) % p;
    std::vector<double> u(kHaloCells + 2);
    std::vector<double> next(kHaloCells + 2);
    for (int i = 0; i < kHaloCells + 2; ++i) u[i] = id * 10.0 + i;
    for (long step = 0; step < kHaloSteps; ++step) {
      proc.send<double>(left, 2 * step, u[1]);
      proc.send<double>(right, 2 * step + 1, u[kHaloCells]);
      u[kHaloCells + 1] = proc.recv<double>(right, 2 * step);
      u[0] = proc.recv<double>(left, 2 * step + 1);
      for (int i = 1; i <= kHaloCells; ++i)
        next[i] = 0.25 * u[i - 1] + 0.5 * u[i] + 0.25 * u[i + 1];
      proc.charge(Op::kFloatOp, 4 * kHaloCells + id % 3);
      std::swap(u, next);
    }
    cells[id].assign(u.begin() + 1, u.begin() + 1 + kHaloCells);
  });
  return {std::move(run), std::move(cells)};
}

TEST(SchedulerStress, HaloRingMatchesThreadsOnOneAndFourCarriers) {
  const HaloRun reference = halo_ring(ExecutionEngine::kThreads);
  for (int carriers : {1, 4}) {
    SCOPED_TRACE(carriers);
    executor_set_carriers(carriers);
    const HaloRun pooled = halo_ring(ExecutionEngine::kPooled);
    EXPECT_EQ(pooled.run.proc_vtimes, reference.run.proc_vtimes);
    ASSERT_EQ(pooled.run.proc_stats.size(), reference.run.proc_stats.size());
    for (std::size_t p = 0; p < pooled.run.proc_stats.size(); ++p)
      EXPECT_EQ(pooled.run.proc_stats[p], reference.run.proc_stats[p]) << p;
    EXPECT_EQ(pooled.cells, reference.cells);
  }
  executor_set_carriers(0);  // restore the SKIL_CARRIERS / hw default
}

TEST(SchedulerStress, FailureShapesAlwaysEndInRuntimeFault) {
  // The three ways a pooled run can fail, repeated so the races between
  // parks, wakes, finishes and poisoning get many interleavings.  Each
  // must surface as a RuntimeFault; a hang here is a lost wakeup or a
  // deadlock the census missed.
  using Body = void (*)(Proc&);
  const std::array<std::pair<const char*, Body>, 3> shapes = {{
      {"every processor blocked",
       [](Proc& proc) {
         proc.recv<int>((proc.id() + 1) % proc.nprocs(), 42);
       }},
      {"deadlock completed by a finishing processor",
       [](Proc& proc) {
         if (proc.id() != 0) proc.recv<int>(0, 7);
       }},
      {"a throw poisons its peers",
       [](Proc& proc) {
         // A relay 0 -> 1 -> ... that processor 0 abandons midway.
         if (proc.id() > 0) proc.recv<int>(proc.id() - 1, 9);
         if (proc.id() == 0) {
           proc.send<int>(1, 9, 0);
           throw support::RuntimeFault("processor 0 gives up");
         }
         if (proc.id() + 1 < proc.nprocs()) proc.send<int>(proc.id() + 1, 9, 0);
         proc.recv<int>(0, 10);
       }},
  }};
  for (int carriers : {1, 4}) {
    executor_set_carriers(carriers);
    for (int i = 0; i < 200; ++i) {
      for (const auto& [name, body] : shapes) {
        RunConfig config{8, CostModel::t800(), ExecutionEngine::kPooled};
        EXPECT_THROW(spmd_run(config, body), support::RuntimeFault)
            << name << ", " << carriers << " carriers, iteration " << i;
      }
      // Processors that swallow the poisoning fault and return: the
      // deadlock is reported once, and the run still ends normally.
      RunConfig config{8, CostModel::t800(), ExecutionEngine::kPooled};
      EXPECT_NO_THROW(spmd_run(config, [](Proc& proc) {
        try {
          proc.recv<int>((proc.id() + 1) % proc.nprocs(), 43);
        } catch (const support::RuntimeFault&) {
        }
      })) << carriers << " carriers, iteration " << i;
    }
  }
  executor_set_carriers(0);  // restore the SKIL_CARRIERS / hw default
}

// --- templated spmd_run ---------------------------------------------------

TEST(SpmdRunTemplated, InvokesArbitraryCallablesWithoutStdFunction) {
  struct Body {
    std::atomic<int>* count;
    void operator()(Proc& proc) const {
      count->fetch_add(proc.id() + 1);
    }
  };
  std::atomic<int> count{0};
  RunConfig config{4, CostModel::t800()};
  spmd_run(config, Body{&count});
  EXPECT_EQ(count.load(), 1 + 2 + 3 + 4);
}

TEST(SpmdRunTemplated, MutableLambdaStateIsPerCallNotPerProc) {
  // The templated overload passes one callable object shared by all
  // processors (same as the std::function path) -- captures must be
  // read-only or synchronised.
  std::atomic<int> hits{0};
  RunConfig config{3, CostModel::t800()};
  const RunResult r = spmd_run(config, [&hits](Proc& proc) {
    hits.fetch_add(1);
    proc.charge(Op::kIntOp, 5);
  });
  EXPECT_EQ(hits.load(), 3);
  EXPECT_EQ(r.proc_vtimes.size(), 3u);
}

}  // namespace
