// The process-per-cell sweep (run_gauss_grid_jobs) ships each cell back
// to the parent through a pipe.  Whatever crosses that wire must equal
// what the in-process sweep computes: the per-cell virtual times bit
// for bit, and every deterministic counter family.
//
// This binary holds one test only: the forked path requires that no
// SPMD run happened earlier in the process (the pooled engine's
// carrier threads would not survive fork).
#include <gtest/gtest.h>

#include <vector>

#include "gauss_sweep.h"
#include "parix/charge_tape.h"

namespace {

using skil::bench::GaussCell;

TEST(ForkWire, ForkedCellsMatchInProcessCells) {
  // Fusion on, so the fusion family is non-zero and a wire that drops
  // it shows; collectives and settlement are non-zero in every cell.
  skil::parix::set_default_fuse_mode(skil::parix::FuseMode::kOn);
  const std::vector<int> ns = skil::bench::paper_ns(/*quick=*/true);
  const std::vector<int> ps = skil::bench::paper_ps();
  const std::uint64_t seed = 19960528;

  const std::vector<GaussCell> forked =
      skil::bench::run_gauss_grid_jobs(ns, ps, seed, /*jobs=*/2);
  const std::vector<GaussCell> local =
      skil::bench::run_gauss_grid_jobs(ns, ps, seed, /*jobs=*/1);

  ASSERT_EQ(forked.size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    const GaussCell& f = forked[i];
    const GaussCell& l = local[i];
    SCOPED_TRACE("cell p=" + std::to_string(l.p) + " n=" + std::to_string(l.n));
    EXPECT_EQ(f.p, l.p);
    EXPECT_EQ(f.n, l.n);
    // Bit equality: == on doubles, no tolerance.
    EXPECT_EQ(f.skil_s, l.skil_s);
    EXPECT_EQ(f.dpfl_s, l.dpfl_s);
    EXPECT_EQ(f.c_s, l.c_s);
    EXPECT_GT(l.coll.total_calls(), 0u);
    EXPECT_TRUE(f.coll == l.coll);
    EXPECT_GT(l.fusion.fused, 0u);
    EXPECT_TRUE(f.fusion == l.fusion);
    // The memo/probe split depends on the process and the schedule;
    // the total the settlement accounted for does not.
    EXPECT_GT(l.settle.total_adds(), 0u);
    EXPECT_EQ(f.settle.total_adds(), l.settle.total_adds());
  }
}

}  // namespace
