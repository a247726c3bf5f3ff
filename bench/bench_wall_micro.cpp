// W1 -- host wall-clock microbenchmarks (google-benchmark).
//
// These measure the *reproduction's* own performance on the host CPU
// (primitive skeleton overheads, mailbox throughput, topology
// construction), complementing the modeled T800 times the table
// benches report.  Run with --benchmark_filter=... to select.
#include <benchmark/benchmark.h>

#include "dpfl/dpfl.h"
#include "parix/collectives.h"
#include "parix/runtime.h"
#include "skil/skil.h"

namespace {

using namespace skil;

void BM_SpmdLaunch(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  parix::RunConfig config{p, parix::CostModel::t800()};
  for (auto _ : state) {
    auto result = parix::spmd_run(config, [](parix::Proc&) {});
    benchmark::DoNotOptimize(result.vtime_us);
  }
}
BENCHMARK(BM_SpmdLaunch)->Arg(1)->Arg(4)->Arg(16);

void BM_MailboxPingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  parix::RunConfig config{2, parix::CostModel::t800()};
  for (auto _ : state) {
    parix::spmd_run(config, [rounds](parix::Proc& proc) {
      for (int i = 0; i < rounds; ++i) {
        if (proc.id() == 0) {
          proc.send<int>(1, 1, i);
          benchmark::DoNotOptimize(proc.recv<int>(1, 2));
        } else {
          benchmark::DoNotOptimize(proc.recv<int>(0, 1));
          proc.send<int>(0, 2, i);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_MailboxPingPong)->Arg(64)->Arg(512);

void BM_ArrayMapTemplate(benchmark::State& state) {
  const int elems = static_cast<int>(state.range(0));
  parix::RunConfig config{2, parix::CostModel::t800()};
  for (auto _ : state) {
    parix::spmd_run(config, [elems](parix::Proc& proc) {
      auto a = array_create<double>(proc, 1, Size{elems},
                                    [](Index ix) { return ix[0] * 1.0; });
      for (int r = 0; r < 16; ++r)
        array_map([](double v) { return v * 1.0000001; }, a, a);
    });
  }
  state.SetItemsProcessed(state.iterations() * elems * 16);
}
BENCHMARK(BM_ArrayMapTemplate)->Arg(1 << 12)->Arg(1 << 16);

void BM_DpflMapClosure(benchmark::State& state) {
  const int elems = static_cast<int>(state.range(0));
  parix::RunConfig config{2, parix::CostModel::t800()};
  for (auto _ : state) {
    parix::spmd_run(config, [elems](parix::Proc& proc) {
      const dpfl::Closure<double(Index)> init(
          proc, [](Index ix) { return ix[0] * 1.0; });
      auto a = dpfl::fa_create<double>(proc, 1, Size{elems}, init);
      const dpfl::Closure<double(double, Index)> f(
          proc, [](double v, Index) { return v * 1.0000001; });
      for (int r = 0; r < 16; ++r) a = dpfl::fa_map(f, a);
    });
  }
  state.SetItemsProcessed(state.iterations() * elems * 16);
}
BENCHMARK(BM_DpflMapClosure)->Arg(1 << 12)->Arg(1 << 16);

void BM_ArrayFold(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  parix::RunConfig config{p, parix::CostModel::t800()};
  for (auto _ : state) {
    parix::spmd_run(config, [](parix::Proc& proc) {
      auto a = array_create<double>(proc, 1, Size{1 << 14},
                                    [](Index ix) { return ix[0] * 1.0; });
      for (int r = 0; r < 8; ++r)
        benchmark::DoNotOptimize(
            array_fold([](double v, Index) { return v; }, fn::plus, a));
    });
  }
}
BENCHMARK(BM_ArrayFold)->Arg(2)->Arg(8);

void BM_GenMult(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  parix::RunConfig config{4, parix::CostModel::t800()};
  for (auto _ : state) {
    parix::spmd_run(config, [n](parix::Proc& proc) {
      auto a = array_create<double>(proc, 2, Size{n, n},
                                    [](Index ix) { return ix[0] * 0.25; },
                                    parix::Distr::kTorus2D);
      auto b = array_create<double>(proc, 2, Size{n, n},
                                    [](Index ix) { return ix[1] * 0.5; },
                                    parix::Distr::kTorus2D);
      auto c = array_create<double>(proc, 2, Size{n, n},
                                    [](Index) { return 0.0; },
                                    parix::Distr::kTorus2D);
      array_gen_mult(a, b, fn::plus, fn::times, c);
    });
  }
}
BENCHMARK(BM_GenMult)->Arg(32)->Arg(64);

void BM_TopologyConstruction(benchmark::State& state) {
  parix::Machine machine(64, parix::CostModel::t800());
  for (auto _ : state) {
    parix::Topology topo(machine, parix::Distr::kTorus2D);
    benchmark::DoNotOptimize(topo.hw_of(63));
  }
}
BENCHMARK(BM_TopologyConstruction);

void BM_PermuteRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  parix::RunConfig config{4, parix::CostModel::t800()};
  for (auto _ : state) {
    parix::spmd_run(config, [n](parix::Proc& proc) {
      auto a = array_create<double>(proc, 2, Size{n, n},
                                    [](Index ix) { return ix[0] * 1.0; });
      auto b = array_create<double>(proc, 2, Size{n, n},
                                    [](Index) { return 0.0; });
      array_permute_rows(a, [n](int row) { return n - 1 - row; }, b);
    });
  }
}
BENCHMARK(BM_PermuteRows)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  skil::parix::require_env_knobs(argv[0]);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
