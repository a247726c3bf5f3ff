// Auto-skeletonization: rewriting sequential loops to skeleton calls
// (DESIGN.md section 16; ROADMAP item 2(a)).
//
// The paper's promise is that programmers write imperative code and
// the skeletons carry the parallelism -- but a plain `for`-loop nest
// in a .skil program stays sequential unless the programmer calls
// `array_map`/`array_fold`/`array_gen_mult` by hand.  This pass
// closes that gap: it recognizes the three loop idioms the paper's
// data-parallel skeletons cover and rewrites them into skeleton calls
// through synthesized customizing functions.
//
// Recognition ladder (each step must hold; the first failure names
// the exact blocking site in a note-level diagnostic):
//
//   1. canonical header      for (i = lo; i < hi; i = i + 1), the
//                            induction variable written nowhere else
//                            and dead after the loop (backward
//                            liveness over the PR 5 CFG/dataflow
//                            solver -- the rewrite leaves `i`
//                            unassigned, so a live-out `i` blocks it)
//   2. whole-array bounds    lo in {0, part_lower(X)}, hi in
//                            {len(X), part_upper(X)} for the array X
//                            the body is indexed with
//   3. body classification
//        dst[i] = EXPR(src[i], ...)          -> array_map
//        acc = acc op EXPR(src[i], ...)      -> array_fold  (op in +, *;
//                                               the preceding statement
//                                               must set acc to op's
//                                               identity)
//        c[i][j] = c[i][j] (+) a[i][k](*)b[k][j]
//          over the triple i/j/k nest        -> array_gen_mult
//      where EXPR reads exactly one array, only at index [i], calls
//      only provably pure functions (PurityOracle) and never reads
//      the induction variable or the accumulator itself.
//
// Rejections are counted per reason and reported as advisory
// `[skeletonize]` notes: loop-carried dependences (`a[i-1]`),
// indirect indices (`a[p[i]]`), non-unit strides, impure calls,
// non-spanning bounds, a live induction variable, an accumulator
// whose initial value is not the operator's identity.
//
// The advisory entry point (analyze_skeletonize, skil-lint's
// `[skeletonize]` pass) never mutates; compile() performs the rewrite
// only under CompileOptions::skeletonize, re-typechecks, and then
// hands the rewritten calls to the PR 7 fusion pass -- a recognized
// map adjacent to a written skeleton call fuses like any other.
#pragma once

#include <array>
#include <string>

#include "skilc/ast.h"
#include "skilc/diagnostics.h"
#include "support/fields.h"

namespace skil::skilc {

/// Outcome counters of one skeletonization run (loops seen /
/// recognized per target / rejected per reason), reported on
/// CompileResult and in the skil-lint JSON.
struct SkeletonizeCounters {
  int loops_seen = 0;           ///< for-loops examined (non-HOF functions)
  int recognized_map = 0;       ///< element-wise updates -> array_map
  int recognized_fold = 0;      ///< accumulations -> array_fold
  int recognized_gen_mult = 0;  ///< triple nests -> array_gen_mult
  int rejected_header = 0;      ///< not a canonical counted loop
  int rejected_stride = 0;      ///< non-unit step
  int rejected_induction = 0;   ///< induction variable written in the
                                ///< body, read in the element
                                ///< computation, or live after the loop
  int rejected_carried = 0;     ///< cross-iteration read (a[i-1], a[i+1])
  int rejected_indirect = 0;    ///< index expression is not the
                                ///< induction variable (a[p[i]], a[2*i])
  int rejected_impure = 0;      ///< body calls an impure or unprovable
                                ///< function
  int rejected_bounds = 0;      ///< bounds do not span a whole array
  int rejected_accumulator = 0; ///< fold seed is not the operator's
                                ///< identity, or the operator does not
                                ///< form a recognized accumulation
  int rejected_shape = 0;       ///< anything else (multi-statement
                                ///< bodies, several source arrays,
                                ///< control flow, unsupported types)

  int recognized() const {
    return recognized_map + recognized_fold + recognized_gen_mult;
  }
  int rejected() const {
    return rejected_header + rejected_stride + rejected_induction +
           rejected_carried + rejected_indirect + rejected_impure +
           rejected_bounds + rejected_accumulator + rejected_shape;
  }

  static constexpr auto fields() {
    using F = support::Field<SkeletonizeCounters, int>;
    return std::array{
        F{"loops_seen", &SkeletonizeCounters::loops_seen},
        F{"recognized_map", &SkeletonizeCounters::recognized_map},
        F{"recognized_fold", &SkeletonizeCounters::recognized_fold},
        F{"recognized_gen_mult", &SkeletonizeCounters::recognized_gen_mult},
        F{"rejected_header", &SkeletonizeCounters::rejected_header},
        F{"rejected_stride", &SkeletonizeCounters::rejected_stride},
        F{"rejected_induction", &SkeletonizeCounters::rejected_induction},
        F{"rejected_carried", &SkeletonizeCounters::rejected_carried},
        F{"rejected_indirect", &SkeletonizeCounters::rejected_indirect},
        F{"rejected_impure", &SkeletonizeCounters::rejected_impure},
        F{"rejected_bounds", &SkeletonizeCounters::rejected_bounds},
        F{"rejected_accumulator", &SkeletonizeCounters::rejected_accumulator},
        F{"rejected_shape", &SkeletonizeCounters::rejected_shape},
    };
  }

  /// Stable-key JSON object, e.g. {"loops_seen": 3, ...,
  /// "recognized": 2, "rejected": 1} (the skil-lint report block).
  std::string render_json() const;

  /// Field-wise sum (skil-lint totals counters across input files).
  SkeletonizeCounters& operator+=(const SkeletonizeCounters& other) {
    return support::add(*this, other);
  }
};

/// Rewrites every recognized loop of the *type-checked* program into
/// the corresponding skeleton call, synthesizing customizing
/// functions (and canonical skeleton definitions when the program has
/// none), and reporting one note per decision into `sink`.  The
/// caller must re-typecheck the program (synthesized functions carry
/// no type annotations).
SkeletonizeCounters skeletonize_program(Program& program,
                                        DiagnosticSink& sink);

/// Advisory form: identical recognition and diagnostics ("can
/// skeletonize" instead of "skeletonized"), no mutation.  Used by
/// skil-lint (disable with --no-skeletonize).
SkeletonizeCounters analyze_skeletonize(const Program& program,
                                        DiagnosticSink& sink);

}  // namespace skil::skilc
