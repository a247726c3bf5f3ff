// Tests for array_map, array_zip, array_copy and array_fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "parix/charge_tape.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/error.h"

namespace {

using namespace skil;
using parix::CostModel;
using parix::Distr;
using parix::Proc;
using parix::RunConfig;

struct GridCase {
  int p;
  int rows;
  int cols;
  Distr distr;
};

class MapFold : public ::testing::TestWithParam<GridCase> {};

TEST_P(MapFold, MapComputesEveryElement) {
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0] + ix[1]; },
                               c.distr);
    auto b = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index) { return 0; }, c.distr);
    array_map([](int v, Index ix) { return v * 2 + ix[0]; }, a, b);
    const auto global = array_gather_all(b);
    for (int i = 0; i < c.rows; ++i)
      for (int j = 0; j < c.cols; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * c.cols + j],
                  (i + j) * 2 + i);
  });
}

TEST_P(MapFold, MapInSituReplacement) {
  // "the two arrays can be identical; in this case the skeleton does
  // an in-situ replacement"
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0] * 100 + ix[1]; },
                               c.distr);
    array_map([](int v) { return v + 1; }, a, a);
    const auto global = array_gather_all(a);
    for (int i = 0; i < c.rows; ++i)
      for (int j = 0; j < c.cols; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * c.cols + j],
                  i * 100 + j + 1);
  });
}

TEST_P(MapFold, MapChangesElementType) {
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<float>(proc, 2, Size{c.rows, c.cols},
                                 [](Index ix) { return ix[0] * 1.0f; },
                                 c.distr);
    auto b = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index) { return -1; }, c.distr);
    array_map([](float v, Index) { return v >= 2.0f ? 1 : 0; }, a, b);
    const auto global = array_gather_all(b);
    for (int i = 0; i < c.rows; ++i)
      for (int j = 0; j < c.cols; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * c.cols + j],
                  i >= 2 ? 1 : 0);
  });
}

TEST_P(MapFold, FoldEqualsSequentialFold) {
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0] * 7 + ix[1]; },
                               c.distr);
    const long sum = array_fold(
        [](int v, Index) { return static_cast<long>(v); },
        [](long x, long y) { return x + y; }, a);
    long expected = 0;
    for (int i = 0; i < c.rows; ++i)
      for (int j = 0; j < c.cols; ++j) expected += i * 7 + j;
    EXPECT_EQ(sum, expected);
  });
}

TEST_P(MapFold, FoldResultIsKnownToAllProcessors) {
  // "In order to make the result known to all processors, it is
  // broadcasted from the root ... to all other processors."
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0] - ix[1]; },
                               c.distr);
    const int maximum = array_fold([](int v, Index) { return v; },
                                   fn::max, a);
    EXPECT_EQ(maximum, c.rows - 1);  // max at (rows-1, 0)
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MapFold,
    ::testing::Values(GridCase{1, 4, 4, Distr::kDefault},
                      GridCase{2, 4, 4, Distr::kDefault},
                      GridCase{4, 8, 8, Distr::kTorus2D},
                      GridCase{4, 6, 10, Distr::kRing},
                      GridCase{6, 6, 6, Distr::kDefault},
                      GridCase{9, 9, 9, Distr::kTorus2D},
                      GridCase{8, 8, 4, Distr::kHypercube}));

TEST(Map, WorksOnCyclicDistributions) {
  RunConfig config{3, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create_cyclic<int>(proc, 2, Size{10, 4},
                                      [](Index ix) { return ix[0]; });
    array_map([](int v) { return v * v; }, a, a);
    const long sum = array_fold([](int v, Index) { return (long)v; },
                                [](long x, long y) { return x + y; }, a);
    long expected = 0;
    for (int i = 0; i < 10; ++i) expected += 4L * i * i;
    EXPECT_EQ(sum, expected);
  });
}

TEST(Map, BlockCyclicRoundTrip) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create_block_cyclic<int>(proc, 1, Size{12}, 2,
                                            [](Index ix) { return ix[0]; });
    const int maximum =
        array_fold([](int v, Index) { return v; }, fn::max, a);
    EXPECT_EQ(maximum, 11);
  });
}

TEST(Map, MismatchedDistributionsAreRejected) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{8}, [](Index) { return 0; });
    auto b = array_create<int>(proc, 1, Size{9}, [](Index) { return 0; });
    EXPECT_THROW(array_map([](int v) { return v; }, a, b),
                 skil::support::ContractError);
  });
}

// Row-kernel contract of array_map_taped: a kernel active only on
// columns >= kActiveCol, run against array_map with a functor that
// charges the tape's sequence on exactly those elements, must give
// bit-identical results, per-processor virtual times and Stats.

constexpr int kActiveCol = 3;

double partial_body(double v, int row, int col) {
  return v * 1.5 - 0.25 * row + 0.125 * col;
}

/// The tape's sequence, charged into `sink` (a ChargeTape or a Proc).
template <class Sink>
void charge_partial_body(Sink& sink) {
  sink.charge(parix::Op::kFloatOp, 2);
  sink.charge(parix::Op::kCall);
}

enum class RowKernelShape { kColumnBlocks, kCyclic, kEmptyPartitions };

struct RowKernelCase {
  RowKernelShape shape;
  bool in_place;  // from == to
};

struct RowKernelRun {
  parix::RunResult run;
  std::vector<double> result;
  bool saw_col_begin = false;  // some run starts past column 0
  bool saw_empty = false;      // some partition holds no element
};

RowKernelRun run_partial_map(const RowKernelCase& c, bool taped) {
  int p = 4;
  Size size{8, 10};
  if (c.shape == RowKernelShape::kCyclic) {
    p = 3;
    size = Size{10, 7};
  } else if (c.shape == RowKernelShape::kEmptyPartitions) {
    p = 8;
    size = Size{3, 6};
  }
  RowKernelRun out;
  std::vector<char> col_begin(p, 0), empty(p, 0);
  RunConfig config{p, CostModel::t800()};
  out.run = parix::spmd_run(config, [&](Proc& proc) {
    const auto make = [&](auto init) {
      if (c.shape == RowKernelShape::kCyclic)
        return array_create_cyclic<double>(proc, 2, size, init);
      return array_create<double>(proc, 2, size, init,
                                  c.shape == RowKernelShape::kColumnBlocks
                                      ? Distr::kTorus2D
                                      : Distr::kDefault);
    };
    auto a = make([](Index ix) { return 1.0 + 0.5 * ix[0] - 0.25 * ix[1]; });
    auto b = make([](Index) { return -1.0; });
    DistArray<double>& to = c.in_place ? a : b;
    for (const RowRun& run : a.my_runs())
      if (run.col_begin > 0) col_begin[proc.id()] = 1;
    empty[proc.id()] = a.my_runs().empty() ? 1 : 0;
    if (taped) {
      parix::ChargeTape tape;
      charge_partial_body(tape);
      array_map_taped(
          [](int row, int c0, int count, const double* in,
             double* dst) -> std::uint64_t {
            const int lead = std::clamp(kActiveCol - c0, 0, count);
            if (in != dst) std::copy(in, in + lead, dst);
            for (int col = lead; col < count; ++col)
              dst[col] = partial_body(in[col], row, c0 + col);
            return static_cast<std::uint64_t>(count - lead);
          },
          tape, a, to);
    } else {
      array_map(
          [&proc](double v, Index ix) {
            if (ix[1] < kActiveCol) return v;
            charge_partial_body(proc);
            return partial_body(v, ix[0], ix[1]);
          },
          a, to);
    }
    std::vector<double> global = array_gather_all(to);
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

class RowKernel : public ::testing::TestWithParam<RowKernelCase> {};

TEST_P(RowKernel, PartiallyActiveKernelMatchesArrayMap) {
  const RowKernelCase c = GetParam();
  const RowKernelRun interp = run_partial_map(c, /*taped=*/false);
  const RowKernelRun taped = run_partial_map(c, /*taped=*/true);
  // The shape really exercises what it is named for.
  if (c.shape == RowKernelShape::kColumnBlocks) {
    EXPECT_TRUE(taped.saw_col_begin);
  }
  if (c.shape == RowKernelShape::kEmptyPartitions) {
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
    ::testing::Values(RowKernelCase{RowKernelShape::kColumnBlocks, false},
                      RowKernelCase{RowKernelShape::kColumnBlocks, true},
                      RowKernelCase{RowKernelShape::kCyclic, false},
                      RowKernelCase{RowKernelShape::kCyclic, true},
                      RowKernelCase{RowKernelShape::kEmptyPartitions, false},
                      RowKernelCase{RowKernelShape::kEmptyPartitions, true}),
    [](const auto& info) {
      return std::string(shape_name(info.param.shape)) +
             (info.param.in_place ? "_InPlace" : "");
    });

TEST(Fold, EmptyPartitionsAreHandled) {
  // 3 elements on 4 processors: one partition is empty, the fold must
  // still produce the global result everywhere.
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{3},
                               [](Index ix) { return ix[0] + 1; });
    const int sum = array_fold([](int v, Index) { return v; },
                               fn::plus, a);
    EXPECT_EQ(sum, 6);
  });
}

TEST(Fold, ConvFunctionSeesIndices) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{4, 4},
                               [](Index) { return 1; });
    // Count diagonal elements via the index-aware conversion.
    const int diag = array_fold(
        [](int v, Index ix) { return ix[0] == ix[1] ? v : 0; },
        fn::plus, a);
    EXPECT_EQ(diag, 4);
  });
}

TEST(Zip, CombinesTwoArrays) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{8, 8},
                               [](Index ix) { return ix[0]; });
    auto b = array_create<int>(proc, 2, Size{8, 8},
                               [](Index ix) { return ix[1]; });
    auto c = array_create<int>(proc, 2, Size{8, 8}, [](Index) { return 0; });
    array_zip(fn::plus, a, b, c);
    const auto global = array_gather_all(c);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * 8 + j], i + j);
  });
}

TEST(Copy, CopiesWholePartitions) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<std::uint32_t>(
        proc, 2, Size{8, 8}, [](Index ix) {
          return static_cast<std::uint32_t>(ix[0] * 8 + ix[1]);
        });
    auto b = array_create<std::uint32_t>(proc, 2, Size{8, 8},
                                         [](Index) { return 0u; });
    array_copy(a, b);
    EXPECT_EQ(array_gather_all(a), array_gather_all(b));
  });
}

TEST(Copy, SelfCopyIsANoOp) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{8},
                               [](Index ix) { return ix[0]; });
    array_copy(a, a);
    EXPECT_EQ(a.get_elem(Index{a.part_bounds().lower[0]}),
              a.part_bounds().lower[0]);
  });
}

TEST(Copy, IsCheaperThanEquivalentMap) {
  // The paper implemented array_copy "instead of using a
  // correspondingly parameterized array_map for this purpose" because
  // contiguous copying is more efficient; the cost model must agree.
  RunConfig config{2, CostModel::t800()};
  auto copy_time = parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{4096},
                               [](Index ix) { return ix[0]; });
    auto b = array_create<int>(proc, 1, Size{4096}, [](Index) { return 0; });
    array_copy(a, b);
    array_copy(a, b);
  });
  auto map_time = parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{4096},
                               [](Index ix) { return ix[0]; });
    auto b = array_create<int>(proc, 1, Size{4096}, [](Index) { return 0; });
    array_map([](int v) { return v; }, a, b);
    array_map([](int v) { return v; }, a, b);
  });
  EXPECT_LT(copy_time.vtime_us, map_time.vtime_us);
}

}  // namespace
