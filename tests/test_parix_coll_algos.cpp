// Differential and golden tests for the collective algorithm zoo
// (parix/coll.h, parix/collectives.h; DESIGN.md section 15).
//
// The zoo's contract has three legs, each pinned here:
//   1. Results: every (collective, algorithm family, embedding, p)
//      combination returns exactly what a naive oracle computes --
//      bit-identical across SKIL_COLL modes, including order-sensitive
//      FP operators (scalar allreduce replays the binomial-tree
//      bracketing; elementwise allreduce falls back to the tree unless
//      the caller declares CollOrder::kExact).
//   2. Virtual times: each algorithm's communication schedule is a
//      deterministic artefact, pinned by hexfloat goldens per
//      (op, algorithm, p).
//   3. Sub-communicators: split_rows/split_cols renumber ranks, keep
//      disjoint tag streams, and never cross-match concurrent row and
//      column collectives.
//   4. Selection memo: a memoized kAuto pick equals the argmin of the
//      modeled costs, one table entry per (embedding, site, size).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "parix/collectives.h"
#include "parix/runtime.h"

namespace {

using namespace skil::parix;

constexpr CollMode kAllModes[] = {CollMode::kTree, CollMode::kRing,
                                  CollMode::kRd, CollMode::kAuto};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// An order-sensitive double per virtual rank: summing these in a
/// different bracketing changes the rounding, so bitwise agreement
/// across algorithm families proves they replay the same combine
/// order, not just "roughly the same sum".
double fuzz_value(int vrank, int salt) {
  const double x = 1.0 + 0.1 * vrank + 1e-4 * vrank * vrank;
  return x + 1e-9 * salt * (vrank % 7);
}

struct Case {
  int nprocs;
  Distr distr;
};

// Non-powers-of-two are first-class: the ring and Bruck algorithms
// must handle them, and Rabenseifner must fall back to the tree.
const Case kCases[] = {
    {2, Distr::kRing},      {3, Distr::kDefault},  {5, Distr::kRing},
    {7, Distr::kDefault},   {8, Distr::kHypercube}, {12, Distr::kTorus2D},
    {16, Distr::kTorus2D},  {31, Distr::kDefault}, {32, Distr::kHypercube},
    {48, Distr::kTorus2D},  {64, Distr::kHypercube},
};

class CollAlgos : public ::testing::TestWithParam<Case> {};

TEST_P(CollAlgos, ScalarAllreduceBitIdenticalAcrossModesForAnyOperator) {
  const auto [p, distr] = GetParam();
  const auto op = [](double a, double b) { return a + b; };
  // Naive oracle: the documented combine order is the binomial-tree
  // bracketing over virtual ranks, replayed here sequentially.
  std::vector<double> contributions(p);
  for (int v = 0; v < p; ++v) contributions[v] = fuzz_value(v, 1);
  const double expected =
      coll_detail::fold_tree_bracketing(contributions, op);

  for (CollMode mode : kAllModes) {
    std::vector<double> results(p);
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      const double local = fuzz_value(topo.vrank_of(proc.id()), 1);
      results[proc.id()] = allreduce(proc, topo, local, op);
    });
    for (int id = 0; id < p; ++id)
      EXPECT_EQ(results[id], expected)
          << "mode " << coll_mode_name(mode) << " proc " << id;
  }
}

TEST_P(CollAlgos, AllgatherMatchesVrankOrderOracleInEveryMode) {
  const auto [p, distr] = GetParam();
  std::vector<double> oracle(p);
  for (int v = 0; v < p; ++v) oracle[v] = fuzz_value(v, 2);

  for (CollMode mode : kAllModes) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      const auto all = allgather(
          proc, topo, fuzz_value(topo.vrank_of(proc.id()), 2));
      ASSERT_EQ(all.size(), oracle.size());
      for (int v = 0; v < p; ++v)
        EXPECT_EQ(all[v], oracle[v])
            << "mode " << coll_mode_name(mode) << " vrank " << v;
    });
  }
}

TEST_P(CollAlgos, HintedBroadcastDeliversRootBufferInEveryMode) {
  const auto [p, distr] = GetParam();
  const int n = 1000;  // not divisible by the chunk count
  std::vector<double> oracle(n);
  for (int i = 0; i < n; ++i) oracle[i] = fuzz_value(i % 97, 3);

  for (CollMode mode : kAllModes) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      const int root = topo.hw_of(p / 2);
      std::vector<double> v;
      if (proc.id() == root) v = oracle;
      broadcast(proc, topo, root, v, n * sizeof(double));
      EXPECT_EQ(v, oracle) << "mode " << coll_mode_name(mode);
    });
  }
}

TEST_P(CollAlgos, ExactElementwiseAllreduceMatchesOracleInEveryMode) {
  const auto [p, distr] = GetParam();
  const int n = 513;  // not divisible by p, exercises ragged segments
  // Integer-valued doubles: the elementwise sums are exact in FP, so
  // the CollOrder::kExact reassociation contract holds bit-for-bit.
  std::vector<double> oracle(n, 0.0);
  for (int v = 0; v < p; ++v)
    for (int i = 0; i < n; ++i)
      oracle[i] += static_cast<double>((v + 1) * (i % 251));

  for (CollMode mode : kAllModes) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      std::vector<double> local(n);
      const int v = topo.vrank_of(proc.id());
      for (int i = 0; i < n; ++i)
        local[i] = static_cast<double>((v + 1) * (i % 251));
      const auto out = allreduce_elems(
          proc, topo, std::move(local),
          [](double a, double b) { return a + b; }, CollOrder::kExact);
      EXPECT_EQ(out, oracle) << "mode " << coll_mode_name(mode);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollAlgos, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "p" + std::to_string(info.param.nprocs) + "_" +
             std::string(distr_name(info.param.distr)).substr(6);
    });

// --- commutativity-sensitive fuzz -----------------------------------

TEST(CollOrderContract, ChainOnlyForcesTreeAndCountsFallbacks) {
  const int p = 16;
  const int n = 4096;  // large enough that kAuto would reassociate
  std::vector<double> tree_result;
  for (CollMode mode : kAllModes) {
    std::vector<double> result;
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    const RunResult run = spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kDefault);
      std::vector<double> local(n);
      for (int i = 0; i < n; ++i)
        local[i] = fuzz_value(topo.vrank_of(proc.id()), i % 31);
      // Default order: kChainOnly.  The FP rounding of the tree's
      // combine bracketing is part of the result.
      const auto out = allreduce_elems(
          proc, topo, std::move(local),
          [](double a, double b) { return a + b; });
      if (proc.id() == 0) result = out;
    });
    const int t = static_cast<int>(CollAlgo::kTree);
    const int ar = static_cast<int>(CollOp::kAllreduce);
    EXPECT_EQ(run.coll.calls[ar][t], static_cast<std::uint64_t>(p))
        << coll_mode_name(mode);
    for (int a = 1; a < kNumCollAlgos; ++a)
      EXPECT_EQ(run.coll.calls[ar][a], 0u)
          << coll_mode_name(mode) << " picked "
          << coll_algo_name(static_cast<CollAlgo>(a));
    // One counted fallback per processor whenever a reassociating
    // family was asked for but the operator forbids it.
    const std::uint64_t expected_fallbacks =
        mode == CollMode::kTree ? 0u : static_cast<std::uint64_t>(p);
    EXPECT_EQ(run.coll.order_fallbacks, expected_fallbacks)
        << coll_mode_name(mode);
    if (mode == CollMode::kTree)
      tree_result = result;
    else
      EXPECT_EQ(result, tree_result) << coll_mode_name(mode);
  }
}

// --- kAuto selection memo --------------------------------------------
//
// Direct argmins over the est_* estimators, written out independently
// of pick_*: the memoized pick must equal them on the first call (the
// miss that fills the table) and on every later call (the hits).

CollAlgo direct_broadcast(const Topology& topo, const CostModel& cost,
                          std::size_t n, bool chunked) {
  using namespace coll_detail;
  const double tree = est_tree_stages(topo, cost, n);
  const double ring = chunked ? est_ring_pipelined_bcast(topo, cost, n)
                              : est_ring_chain_bcast(topo, cost, n);
  return ring < tree ? CollAlgo::kRing : CollAlgo::kTree;
}

CollAlgo direct_gathering(double tree, double ring, double rd) {
  if (rd <= tree && rd <= ring) return CollAlgo::kRecDouble;
  return ring <= tree ? CollAlgo::kRing : CollAlgo::kTree;
}

CollAlgo direct_allgather(const Topology& topo, const CostModel& cost,
                          std::size_t item) {
  using namespace coll_detail;
  return direct_gathering(est_tree_allgather(topo, cost, item),
                          est_ring_allgather(topo, cost, item),
                          est_bruck_allgather(topo, cost, item));
}

CollAlgo direct_allreduce(const Topology& topo, const CostModel& cost,
                          std::size_t item) {
  using namespace coll_detail;
  return direct_gathering(2.0 * est_tree_stages(topo, cost, item),
                          est_ring_allgather(topo, cost, item),
                          est_bruck_allgather(topo, cost, item));
}

CollAlgo direct_allreduce_elems(const Topology& topo, const CostModel& cost,
                                std::size_t n) {
  using namespace coll_detail;
  const double tree = 2.0 * est_tree_stages(topo, cost, n + 8);
  const double ring = est_ring_elems(topo, cost, n);
  if (is_pow2(topo.nprocs())) {
    const double raben = est_rabenseifner_elems(topo, cost, n);
    if (raben <= tree && raben <= ring) return CollAlgo::kRabenseifner;
  }
  return ring <= tree ? CollAlgo::kRing : CollAlgo::kTree;
}

/// One selection call per site at `nbytes` (allgather and scalar
/// allreduce take their size from the type), checked against the
/// direct argmin.  `keys` collects the distinct (kind, comm, site,
/// bytes) keys the calls should have memoized.
template <std::size_t kItem>
void check_picks(Proc& proc, const Topology& topo, std::size_t nbytes,
                 std::set<std::tuple<int, int, int, std::size_t>>& keys) {
  using Item = std::array<char, kItem>;
  const CostModel& cost = proc.cost();
  const auto key = [&](CollSite site, std::size_t bytes) {
    keys.emplace(static_cast<int>(topo.kind()), topo.comm_id(),
                 static_cast<int>(site), bytes);
  };
  const std::string where = std::string(distr_name(topo.kind())) +
                            " comm " + std::to_string(topo.comm_id()) +
                            " p " + std::to_string(topo.nprocs()) +
                            " bytes " + std::to_string(nbytes);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(coll_detail::pick_broadcast(proc, topo, nbytes, false),
              direct_broadcast(topo, cost, nbytes, false))
        << where;
    EXPECT_EQ(coll_detail::pick_broadcast(proc, topo, nbytes, true),
              direct_broadcast(topo, cost, nbytes, true))
        << where;
    EXPECT_EQ(coll_detail::pick_allreduce_elems(proc, topo, nbytes,
                                                CollOrder::kExact),
              direct_allreduce_elems(topo, cost, nbytes))
        << where;
    EXPECT_EQ(coll_detail::pick_allgather<Item>(proc, topo),
              direct_allgather(topo, cost, kItem))
        << where;
    EXPECT_EQ(coll_detail::pick_allreduce<Item>(proc, topo),
              direct_allreduce(topo, cost, kItem))
        << where;
  }
  key(CollSite::kBroadcast, nbytes);
  key(CollSite::kBroadcastChunked, nbytes);
  key(CollSite::kAllreduceElems, nbytes);
  key(CollSite::kAllgather, kItem);
  key(CollSite::kAllreduce, kItem);
  EXPECT_EQ(proc.coll_memo().size(), keys.size()) << where;
}

TEST(CollPickMemo, AutoPicksEqualDirectArgminOnFullAndSplitTopologies) {
  constexpr std::size_t kSizes[] = {8, 64, 512, 4096, 32768, 262144};
  for (int p : {16, 32, 64}) {
    Machine machine(p, CostModel::t800());
    Proc proc(machine, 0);
    proc.set_coll_mode(CollMode::kAuto);
    std::set<std::tuple<int, int, int, std::size_t>> keys;
    for (Distr distr : {Distr::kDefault, Distr::kRing, Distr::kTorus2D,
                        Distr::kHypercube}) {
      // The full topology plus every row and every column communicator.
      // At p = 16 and 64 the grid is square, so row and column
      // communicators have equal sizes and only the communicator id
      // tells them apart: one table entry per distinct key (checked in
      // check_picks) means no two of them share an entry.
      const Topology full(machine, distr);
      std::vector<Topology> topos{full};
      for (int r = 0; r < full.grid_rows(); ++r)
        topos.push_back(full.split_rows(full.at_grid(r, 0)));
      for (int c = 0; c < full.grid_cols(); ++c)
        topos.push_back(full.split_cols(full.at_grid(0, c)));
      for (const Topology& topo : topos) {
        for (std::size_t n : kSizes) check_picks<8>(proc, topo, n, keys);
        check_picks<1>(proc, topo, 64, keys);
        check_picks<512>(proc, topo, 64, keys);
        check_picks<8192>(proc, topo, 64, keys);
      }
    }
  }
}

TEST(CollPickMemo, ForcedModesAndChainOnlyCallsBypassTheTable) {
  Machine machine(16, CostModel::t800());
  Proc proc(machine, 0);
  const Topology topo(machine, Distr::kDefault);
  for (CollMode mode : {CollMode::kTree, CollMode::kRing, CollMode::kRd}) {
    proc.set_coll_mode(mode);
    coll_detail::pick_broadcast(proc, topo, 4096, true);
    coll_detail::pick_allgather<double>(proc, topo);
    coll_detail::pick_allreduce<double>(proc, topo);
    coll_detail::pick_allreduce_elems(proc, topo, 4096, CollOrder::kExact);
  }
  EXPECT_EQ(proc.coll_memo().size(), 0u);

  // Under kAuto, every chain-only call still counts its fallback: the
  // counter ticks per call and never comes from a memoized answer.
  proc.set_coll_mode(CollMode::kAuto);
  const std::uint64_t before = proc.coll_counters().order_fallbacks;
  for (int call = 1; call <= 5; ++call) {
    EXPECT_EQ(coll_detail::pick_allreduce_elems(proc, topo, 32768,
                                                CollOrder::kChainOnly),
              CollAlgo::kTree);
    EXPECT_EQ(proc.coll_counters().order_fallbacks,
              before + static_cast<std::uint64_t>(call));
  }
  EXPECT_EQ(proc.coll_memo().size(), 0u);
  // An exact-order call at the same size does enter the table.
  coll_detail::pick_allreduce_elems(proc, topo, 32768, CollOrder::kExact);
  EXPECT_EQ(proc.coll_memo().size(), 1u);
}

// --- counters --------------------------------------------------------

TEST(CollCounters, AttributeCallsBytesHopsAndStepsPerAlgorithm) {
  const int p = 8;
  const int ag = static_cast<int>(CollOp::kAllgather);
  struct Expect {
    CollMode mode;
    CollAlgo algo;
  };
  for (const auto& [mode, algo] : {Expect{CollMode::kTree, CollAlgo::kTree},
                                   Expect{CollMode::kRing, CollAlgo::kRing},
                                   Expect{CollMode::kRd,
                                          CollAlgo::kRecDouble}}) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    const RunResult run = spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kRing);
      (void)allgather(proc, topo, proc.id() * 1.5);
    });
    EXPECT_EQ(run.coll.calls[ag][static_cast<int>(algo)],
              static_cast<std::uint64_t>(p))
        << coll_mode_name(mode);
    EXPECT_EQ(run.coll.calls_for(algo), run.coll.total_calls())
        << coll_mode_name(mode) << ": every call should resolve to "
        << coll_algo_name(algo);
    if (mode == CollMode::kRing) {
      // p-1 pass-around steps per processor, one payload per step.
      EXPECT_EQ(run.coll.steps[ag], static_cast<std::uint64_t>(p * (p - 1)));
      EXPECT_GT(run.coll.bytes[ag], 0u);
      // Every counted edge is at least one physical hop.
      EXPECT_GE(run.coll.hops[ag], run.coll.steps[ag]);
    }
  }
}

// --- per-algorithm vtime goldens -------------------------------------
//
// Captured from this implementation (hexfloat, bit-exact).  A change
// to any of them means the algorithm's communication schedule -- the
// artefact the cost model prices -- moved, not just host performance.

RunResult run_elems(CollMode mode, int p, Distr distr) {
  RunConfig config{p, CostModel::t800()};
  config.coll = mode;
  return spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    std::vector<double> v(4096);
    const int vr = topo.vrank_of(proc.id());
    for (int i = 0; i < 4096; ++i)
      v[i] = static_cast<double>((vr + 1) * (i % 1021));
    (void)allreduce_elems(proc, topo, std::move(v),
                          [](double a, double b) { return a + b; },
                          CollOrder::kExact);
  });
}

RunResult run_allgather(CollMode mode, int p, Distr distr) {
  RunConfig config{p, CostModel::t800()};
  config.coll = mode;
  return spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    (void)allgather(proc, topo, proc.id() + 0.5);
  });
}

RunResult run_bcast(CollMode mode, int p, Distr distr) {
  RunConfig config{p, CostModel::t800()};
  config.coll = mode;
  return spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    std::vector<double> v;
    if (proc.id() == 0) v.assign(8192, 1.25);
    broadcast(proc, topo, 0, v, 8192 * sizeof(double));
  });
}

struct AlgoGolden {
  const char* name;
  RunResult (*run)();
  double vtime_us;
  std::uint64_t messages_sent;
};

const AlgoGolden kAlgoGoldens[] = {
    {"elems_tree_p16",
     [] { return run_elems(CollMode::kTree, 16, Distr::kDefault); },
     0x1.a0c5999999999p+18, 30},
    {"elems_ring_p16",
     [] { return run_elems(CollMode::kRing, 16, Distr::kDefault); },
     0x1.08e8cccccccccp+17, 480},
    {"elems_raben_p16",
     [] { return run_elems(CollMode::kRd, 16, Distr::kDefault); },
     0x1.aee3333333333p+16, 128},
    {"allgather_tree_p16",
     [] { return run_allgather(CollMode::kTree, 16, Distr::kRing); },
     0x1.a173333333333p+12, 30},
    {"allgather_ring_p16",
     [] { return run_allgather(CollMode::kRing, 16, Distr::kRing); },
     0x1.2006666666666p+13, 240},
    {"allgather_bruck_p12",
     [] { return run_allgather(CollMode::kRd, 12, Distr::kDefault); },
     0x1.8933333333333p+11, 48},
    {"bcast_tree_p16",
     [] { return run_bcast(CollMode::kTree, 16, Distr::kDefault); },
     0x1.0ec9333333333p+18, 15},
    {"bcast_ringpipe_p16",
     [] { return run_bcast(CollMode::kRing, 16, Distr::kDefault); },
     0x1.547d99999999bp+16, 240},
};

TEST(CollAlgoGoldens, VtimesAndScheduleArePinnedPerAlgorithm) {
  for (const AlgoGolden& g : kAlgoGoldens) {
    const RunResult run = g.run();
    EXPECT_EQ(run.vtime_us, g.vtime_us)
        << g.name << ": actual " << hex(run.vtime_us);
    EXPECT_EQ(run.total.messages_sent, g.messages_sent) << g.name;
  }
}

TEST(CollAlgoGoldens, ReassociatingFamiliesBeatTheTreeAtThisSize) {
  // The reason the zoo exists: at 32 KB payloads on 16 processors the
  // reduce-scatter pipelines are well under the 2 log p tree.
  const double tree = run_elems(CollMode::kTree, 16, Distr::kDefault).vtime_us;
  const double ring = run_elems(CollMode::kRing, 16, Distr::kDefault).vtime_us;
  const double raben = run_elems(CollMode::kRd, 16, Distr::kDefault).vtime_us;
  const double adaptive =
      run_elems(CollMode::kAuto, 16, Distr::kDefault).vtime_us;
  EXPECT_LT(ring, tree);
  EXPECT_LT(raben, tree);
  // auto picks the best of the three estimates.
  EXPECT_LE(adaptive, std::min({tree, ring, raben}) * 1.0001);
}

TEST(CollAlgoGoldens, VtimeIsDeterministicPerMode) {
  for (CollMode mode : kAllModes) {
    const RunResult a = run_elems(mode, 12, Distr::kTorus2D);
    const RunResult b = run_elems(mode, 12, Distr::kTorus2D);
    EXPECT_EQ(a.vtime_us, b.vtime_us) << coll_mode_name(mode);
    EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
    EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent);
  }
}

// --- sub-communicators ----------------------------------------------

TEST(SplitComm, RowsAndColumnsRenumberRanksAndKeepDistinctIds) {
  RunConfig config{16, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    const Topology topo(proc.machine(), Distr::kTorus2D);
    const Topology row = topo.split_rows(proc.id());
    const Topology col = topo.split_cols(proc.id());
    const int my_row = topo.vrank_of(proc.id()) / topo.grid_cols();
    const int my_col = topo.vrank_of(proc.id()) % topo.grid_cols();

    EXPECT_EQ(row.nprocs(), topo.grid_cols());
    EXPECT_EQ(col.nprocs(), topo.grid_rows());
    EXPECT_EQ(row.vrank_of(proc.id()), my_col);
    EXPECT_EQ(col.vrank_of(proc.id()), my_row);
    EXPECT_TRUE(row.is_subgroup());
    EXPECT_NE(row.comm_id(), col.comm_id());
    EXPECT_EQ(row.comm_id(), 1 + my_row);
    EXPECT_EQ(col.comm_id(), 1 + topo.grid_rows() + my_col);
    for (int hw = 0; hw < 16; ++hw) {
      const int r = topo.vrank_of(hw) / topo.grid_cols();
      EXPECT_EQ(row.contains(hw), r == my_row) << "hw " << hw;
    }
  });
}

TEST(SplitComm, ConcurrentRowAndColumnCollectivesNeverCrossMatch) {
  // Every processor interleaves collectives on its row and column
  // subgroups.  The disjoint per-communicator tag streams are what
  // keeps a row message from satisfying a column recv -- under every
  // algorithm family, including the multi-step ring/Bruck schedules.
  for (CollMode mode : kAllModes) {
    RunConfig config{16, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kTorus2D);
      const Topology row = topo.split_rows(proc.id());
      const Topology col = topo.split_cols(proc.id());
      const int my_row = topo.vrank_of(proc.id()) / topo.grid_cols();
      const int my_col = topo.vrank_of(proc.id()) % topo.grid_cols();

      const int row_sum = allreduce(proc, row, 1 << topo.vrank_of(proc.id()),
                                    [](int a, int b) { return a + b; });
      const int col_sum = allreduce(proc, col, 1 << topo.vrank_of(proc.id()),
                                    [](int a, int b) { return a + b; });
      // Expected: sum of 2^vrank over the row (resp. column) members.
      int expect_row = 0, expect_col = 0;
      for (int c = 0; c < topo.grid_cols(); ++c)
        expect_row += 1 << (my_row * topo.grid_cols() + c);
      for (int r = 0; r < topo.grid_rows(); ++r)
        expect_col += 1 << (r * topo.grid_cols() + my_col);
      EXPECT_EQ(row_sum, expect_row) << coll_mode_name(mode);
      EXPECT_EQ(col_sum, expect_col) << coll_mode_name(mode);

      // A hinted panel broadcast on each, SUMMA-style, from the
      // diagonal member.
      std::vector<double> panel;
      if (my_col == my_row) panel.assign(256, 10.0 * my_row + 1.0);
      broadcast(proc, row, topo.at_grid(my_row, my_row), panel,
                256 * sizeof(double));
      ASSERT_EQ(panel.size(), 256u);
      EXPECT_EQ(panel[0], 10.0 * my_row + 1.0) << coll_mode_name(mode);

      const auto col_ids = allgather(proc, col, proc.id());
      ASSERT_EQ(static_cast<int>(col_ids.size()), topo.grid_rows());
      for (int r = 0; r < topo.grid_rows(); ++r)
        EXPECT_EQ(col_ids[r], topo.at_grid(r, my_col));
    });
  }
}

TEST(SplitComm, SubgroupVtimeIsDeterministicAcrossRuns) {
  auto run_once = [] {
    RunConfig config{16, CostModel::t800()};
    config.coll = CollMode::kAuto;
    return spmd_run(config, [](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kTorus2D);
      const Topology row = topo.split_rows(proc.id());
      const Topology col = topo.split_cols(proc.id());
      std::vector<double> v(512, proc.id() + 1.0);
      v = allreduce_elems(proc, row, std::move(v),
                          [](double a, double b) { return a + b; },
                          CollOrder::kExact);
      v = allreduce_elems(proc, col, std::move(v),
                          [](double a, double b) { return a + b; },
                          CollOrder::kExact);
    });
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.vtime_us, b.vtime_us);
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
}

}  // namespace
