// Tests for the DPFL functional baseline: same semantics as the Skil
// skeletons, higher modeled cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dpfl/dpfl.h"
#include "parix/charge_tape.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/matrix.h"

namespace {

using namespace skil;
using dpfl::Closure;
using dpfl::FArray;
using parix::CostModel;
using parix::Distr;
using parix::Proc;
using parix::RunConfig;

TEST(FArray, CreateAndGather) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc,
                                   [](Index ix) { return ix[0] * 8 + ix[1]; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{8, 8}, init);
    const auto global = dpfl::fa_gather_all(a);
    for (int k = 0; k < 64; ++k) EXPECT_EQ(global[k], k);
  });
}

TEST(FArray, MapReturnsFreshArrayAndPreservesSource) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc, [](Index ix) { return ix[0]; });
    const auto a = dpfl::fa_create<int>(proc, 1, Size{8}, init);
    const Closure<int(int, Index)> doubler(
        proc, [](int v, Index) { return v * 2; });
    const auto b = dpfl::fa_map(doubler, a);
    // Immutability: the source is unchanged, the result is new.
    const auto ga = dpfl::fa_gather_all(a);
    const auto gb = dpfl::fa_gather_all(b);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(ga[i], i);
      EXPECT_EQ(gb[i], 2 * i);
    }
  });
}

TEST(FArray, FoldMatchesSequential) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc,
                                   [](Index ix) { return ix[0] + ix[1]; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{6, 6}, init);
    const Closure<long(int, Index)> conv(
        proc, [](int v, Index) { return static_cast<long>(v); });
    const Closure<long(long, long)> add(
        proc, [](long x, long y) { return x + y; });
    const long sum = dpfl::fa_fold(conv, add, a);
    long expected = 0;
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j) expected += i + j;
    EXPECT_EQ(sum, expected);
  });
}

TEST(FArray, BroadcastPartMatchesSkilSemantics) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<double(Index)> init(
        proc, [](Index ix) { return ix[0] * 100.0 + ix[1]; });
    auto piv = dpfl::fa_create<double>(proc, 2, Size{4, 5}, init,
                                       Distr::kDefault, Size{1, 5});
    piv = dpfl::fa_broadcast_part(piv, Index{2, 0});
    const int my_row = piv.part_bounds().lower[0];
    EXPECT_DOUBLE_EQ(piv.get_elem(Index{my_row, 3}), 203.0);
  });
}

TEST(FArray, PermuteRowsMatchesSkilSkeleton) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(
        proc, [](Index ix) { return ix[0] * 50 + ix[1]; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{8, 4}, init,
                                        Distr::kDefault, Size{2, 4});
    const Closure<int(int)> reverse(proc, [](int row) { return 7 - row; });
    const auto b = dpfl::fa_permute_rows(a, reverse);
    const auto global = dpfl::fa_gather_all(b);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 4; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * 4 + j],
                  (7 - i) * 50 + j);
  });
}

TEST(FArray, PermuteRejectsNonBijection) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc, [](Index) { return 0; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{4, 2}, init,
                                        Distr::kDefault, Size{2, 2});
    const Closure<int(int)> collapse(proc, [](int) { return 1; });
    EXPECT_THROW(dpfl::fa_permute_rows(a, collapse),
                 skil::support::ContractError);
  });
}

TEST(FArray, GenMultMatchesOracle) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<double(Index)> init_a(
        proc, [](Index ix) { return support::dense_entry(5, ix[0], ix[1]); });
    const Closure<double(Index)> init_b(
        proc, [](Index ix) { return support::dense_entry(6, ix[0], ix[1]); });
    const Closure<double(double, double)> add(
        proc, [](double x, double y) { return x + y; });
    const Closure<double(double, double)> mult(
        proc, [](double x, double y) { return x * y; });
    const auto a = dpfl::fa_create<double>(proc, 2, Size{8, 8}, init_a,
                                           Distr::kTorus2D);
    const auto b = dpfl::fa_create<double>(proc, 2, Size{8, 8}, init_b,
                                           Distr::kTorus2D);
    const auto c = dpfl::fa_gen_mult(a, b, add, mult);
    const auto got = dpfl::fa_gather_all(c);
    const auto expected = support::seq_matmul(support::random_dense(8, 8, 5),
                                              support::random_dense(8, 8, 6));
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        EXPECT_NEAR(got[static_cast<std::size_t>(i) * 8 + j], expected(i, j),
                    1e-9);
  });
}

TEST(FArray, GetElemRejectsNonLocal) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc, [](Index ix) { return ix[0]; });
    const auto a = dpfl::fa_create<int>(proc, 1, Size{8}, init);
    const int foreign = proc.id() == 0 ? 7 : 0;
    EXPECT_THROW(a.get_elem(Index{foreign}), skil::support::ContractError);
  });
}

// Row-kernel contract of fa_map_taped: a kernel active only on
// columns >= kActiveCol, run against fa_map with a closure that
// charges the tape's sequence on exactly those elements, must give
// bit-identical results, per-processor virtual times and Stats.
// fa_map_taped always fills a fresh partition, so there is no
// in-place case to check.

constexpr int kActiveCol = 3;

double partial_body(double v, int row, int col) {
  return v * 1.5 - 0.25 * row + 0.125 * col;
}

/// The tape's sequence, charged into `sink` (a ChargeTape or a Proc).
template <class Sink>
void charge_partial_body(Sink& sink) {
  dpfl::charge_boxed_arith(sink, 2);
  FArray<double>::append_get_elem_charges(sink);
}

enum class RowKernelShape { kColumnBlocks, kCyclic, kEmptyPartitions };

struct RowKernelRun {
  parix::RunResult run;
  std::vector<double> result;
  bool saw_col_begin = false;  // some run starts past column 0
  bool saw_empty = false;      // some partition holds no element
};

/// A functional array over any distribution, filled without charges
/// (fa_create builds block layouts only).
FArray<double> make_farray(Proc& proc, const Distribution& dist) {
  auto shared = std::make_shared<const Distribution>(dist);
  std::vector<double> local;
  const int vrank = shared->topology().vrank_of(proc.id());
  for (const RowRun& run : shared->local_runs(vrank))
    for (int c = 0; c < run.col_count; ++c)
      local.push_back(1.0 + 0.5 * run.row - 0.25 * (run.col_begin + c));
  return FArray<double>(proc, std::move(shared), std::move(local));
}

RowKernelRun run_partial_fa_map(RowKernelShape shape, bool taped) {
  int p = 4;
  Size size{8, 10};
  Distr distr = Distr::kTorus2D;
  if (shape == RowKernelShape::kCyclic) {
    p = 3;
    size = Size{10, 7};
    distr = Distr::kRing;
  } else if (shape == RowKernelShape::kEmptyPartitions) {
    p = 8;
    size = Size{3, 6};
    distr = Distr::kDefault;
  }
  RowKernelRun out;
  std::vector<char> col_begin(p, 0), empty(p, 0);
  RunConfig config{p, CostModel::t800()};
  out.run = parix::spmd_run(config, [&](Proc& proc) {
    auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
    const FArray<double> a = make_farray(
        proc, shape == RowKernelShape::kCyclic
                  ? Distribution::cyclic(std::move(topo), 2, size)
                  : Distribution::block(std::move(topo), 2, size));
    for (const RowRun& run : a.my_runs())
      if (run.col_begin > 0) col_begin[proc.id()] = 1;
    empty[proc.id()] = a.my_runs().empty() ? 1 : 0;
    FArray<double> b;
    if (taped) {
      proc.charge(parix::Op::kAlloc);  // the interp closure's record
      parix::ChargeTape tape;
      charge_partial_body(tape);
      b = dpfl::fa_map_taped<double>(
          [](int row, int c0, int count, const double* in,
             double* dst) -> std::uint64_t {
            const int lead = std::clamp(kActiveCol - c0, 0, count);
            std::copy(in, in + lead, dst);
            for (int col = lead; col < count; ++col)
              dst[col] = partial_body(in[col], row, c0 + col);
            return static_cast<std::uint64_t>(count - lead);
          },
          tape, a);
    } else {
      const Closure<double(double, Index)> map_f(
          proc, [&proc](double v, Index ix) {
            if (ix[1] < kActiveCol) return v;
            charge_partial_body(proc);
            return partial_body(v, ix[0], ix[1]);
          });
      b = dpfl::fa_map(map_f, a);
    }
    std::vector<double> global = dpfl::fa_gather_all(b);
    if (proc.id() == 0) out.result = std::move(global);
  });
  out.saw_col_begin = std::ranges::count(col_begin, 1) > 0;
  out.saw_empty = std::ranges::count(empty, 1) > 0;
  return out;
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& xs) {
  std::vector<std::uint64_t> bits;
  for (double x : xs) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

const char* shape_name(RowKernelShape shape) {
  switch (shape) {
    case RowKernelShape::kColumnBlocks: return "ColumnBlocks";
    case RowKernelShape::kCyclic: return "Cyclic";
    case RowKernelShape::kEmptyPartitions: return "EmptyPartitions";
  }
  return "?";
}

class RowKernel : public ::testing::TestWithParam<RowKernelShape> {};

TEST_P(RowKernel, PartiallyActiveKernelMatchesFaMap) {
  const RowKernelShape shape = GetParam();
  const RowKernelRun interp = run_partial_fa_map(shape, /*taped=*/false);
  const RowKernelRun taped = run_partial_fa_map(shape, /*taped=*/true);
  // The shape really exercises what it is named for.
  if (shape == RowKernelShape::kColumnBlocks) {
    EXPECT_TRUE(taped.saw_col_begin);
  }
  if (shape == RowKernelShape::kEmptyPartitions) {
    EXPECT_TRUE(taped.saw_empty);
  }
  ASSERT_FALSE(interp.result.empty());
  EXPECT_EQ(bit_patterns(interp.result), bit_patterns(taped.result));
  ASSERT_EQ(interp.run.proc_vtimes.size(), taped.run.proc_vtimes.size());
  for (std::size_t pid = 0; pid < interp.run.proc_vtimes.size(); ++pid) {
    SCOPED_TRACE(::testing::Message() << "proc " << pid);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(interp.run.proc_vtimes[pid]),
              std::bit_cast<std::uint64_t>(taped.run.proc_vtimes[pid]));
    EXPECT_EQ(interp.run.proc_stats[pid], taped.run.proc_stats[pid]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RowKernel,
    ::testing::Values(RowKernelShape::kColumnBlocks, RowKernelShape::kCyclic,
                      RowKernelShape::kEmptyPartitions),
    [](const auto& info) {
      return std::string(shape_name(info.param));
    });

TEST(CostComparison, DpflMapCostsMoreThanSkilMap) {
  // The whole point of the baseline: identical semantics, closure and
  // boxing overheads in the virtual time.
  RunConfig config{2, CostModel::t800()};
  const auto skil_run = parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<double>(proc, 1, Size{1000},
                                  [](Index ix) { return ix[0] * 1.0; });
    array_map([](double v) { return v + 1.0; }, a, a);
  });
  const auto dpfl_run = parix::spmd_run(config, [](Proc& proc) {
    const Closure<double(Index)> init(proc,
                                      [](Index ix) { return ix[0] * 1.0; });
    auto a = dpfl::fa_create<double>(proc, 1, Size{1000}, init);
    const Closure<double(double, Index)> inc(
        proc, [](double v, Index) { return v + 1.0; });
    a = dpfl::fa_map(inc, a);
  });
  EXPECT_GT(dpfl_run.vtime_us, 3.0 * skil_run.vtime_us);
}

TEST(BaselineName, MentionsDPFL) {
  EXPECT_NE(std::string(dpfl::baseline_name()).find("DPFL"),
            std::string::npos);
}

}  // namespace
