// Differential tests for the auto-skeletonization rewrite (DESIGN.md
// section 16): a rewritten program must compute bit-identical results
// to its sequential original.  Three oracles agree here:
//
//   1. the reference interpreter runs the original and the rewritten
//      instantiation of each seq_* program and compares bits;
//   2. the runtime library executes the same computation through the
//      real skeletons (array_map / array_fold / array_gen_mult) on
//      BOTH execution engines, and the gathered results must match
//      the interpreter bits exactly;
//   3. a fuzzer generates random pure element-wise and accumulation
//      bodies and checks the rewrite never changes a single bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "parix/runtime.h"
#include "parix_golden_cases.h"
#include "skil/skil.h"
#include "skilc/compiler.h"
#include "skilc/interp.h"

namespace {

using namespace skil;
using parix::CostModel;
using parix::Distr;
using parix::ExecutionEngine;
using parix::Proc;
using parix::RunConfig;
using skilc::CompileOptions;
using skilc::CompileResult;
using skilc::Value;
using skil::testing::with_engine;

const char* kSeqMap = R"(int len (array <float> a);

void scale (array <float> xs, array <float> ys, float w) {
  int i;
  for (i = 0; i < len(xs); i = i + 1) {
    ys[i] = w * xs[i] + 1.0;
  }
}
)";

const char* kSeqDot = R"(int len (array <int> a);

int dot (array <int> xs) {
  int total = 0;
  int i;
  for (i = 0; i < len(xs); i = i + 1) {
    total = total + xs[i] * xs[i];
  }
  return total;
}
)";

const char* kSeqMatmul = R"(int len (array <array <int> > a);

void matmul (array <array <int> > a, array <array <int> > b,
             array <array <int> > c) {
  int i;
  int j;
  int k;
  for (i = 0; i < len(a); i = i + 1) {
    for (j = 0; j < len(b); j = j + 1) {
      for (k = 0; k < len(b); k = k + 1) {
        c[i][j] = c[i][j] + a[i][k] * b[k][j];
      }
    }
  }
}
)";

CompileResult compile_plain(const std::string& source) {
  return skilc::compile(source, CompileOptions{});
}

CompileResult compile_skeletonized(const std::string& source) {
  CompileOptions options;
  options.skeletonize = true;
  return skilc::compile(source, options);
}

Value int_array(const std::vector<long>& values) {
  std::vector<Value> elems;
  elems.reserve(values.size());
  for (long v : values) elems.push_back(Value::of_int(v));
  return Value::of_array(elems);
}

Value float_array(const std::vector<double>& values) {
  std::vector<Value> elems;
  elems.reserve(values.size());
  for (double v : values) elems.push_back(Value::of_float(v));
  return Value::of_array(elems);
}

// --- interpreter differentials: original vs rewritten ----------------------

TEST(SkelRunDifferential, MapRewriteIsBitIdentical) {
  const CompileResult plain = compile_plain(kSeqMap);
  const CompileResult rewritten = compile_skeletonized(kSeqMap);
  EXPECT_EQ(rewritten.skeletonize.recognized_map, 1);

  const std::vector<double> xs = {0.5, -1.25, 3.75, 0.1, -0.0, 100.625};
  const Value w = Value::of_float(2.5);
  Value ys_plain = float_array(std::vector<double>(xs.size(), 0.0));
  Value ys_rewritten = float_array(std::vector<double>(xs.size(), 0.0));
  skilc::run_function(plain.instantiated, "scale",
                      {float_array(xs), ys_plain, w});
  skilc::run_function(rewritten.instantiated, "scale",
                      {float_array(xs), ys_rewritten, w});
  EXPECT_TRUE(skilc::value_bits_equal(ys_plain, ys_rewritten));
}

TEST(SkelRunDifferential, FoldRewriteIsBitIdentical) {
  const CompileResult plain = compile_plain(kSeqDot);
  const CompileResult rewritten = compile_skeletonized(kSeqDot);
  EXPECT_EQ(rewritten.skeletonize.recognized_fold, 1);

  const std::vector<long> xs = {3, -1, 4, 1, -5, 9, 2, -6};
  const Value a =
      skilc::run_function(plain.instantiated, "dot", {int_array(xs)});
  const Value b =
      skilc::run_function(rewritten.instantiated, "dot", {int_array(xs)});
  EXPECT_TRUE(skilc::value_bits_equal(a, b));
  EXPECT_EQ(a.i, 3 * 3 + 1 + 16 + 1 + 25 + 81 + 4 + 36);
}

TEST(SkelRunDifferential, GenMultRewriteIsBitIdentical) {
  const CompileResult plain = compile_plain(kSeqMatmul);
  const CompileResult rewritten = compile_skeletonized(kSeqMatmul);
  EXPECT_EQ(rewritten.skeletonize.recognized_gen_mult, 1);

  const int n = 5;
  auto make_matrix = [&](long scale, long shift) {
    std::vector<Value> rows;
    for (int i = 0; i < n; ++i) {
      std::vector<long> row;
      for (int j = 0; j < n; ++j)
        row.push_back(scale * (i + 1) + shift * j - 3);
      rows.push_back(int_array(row));
    }
    return Value::of_array(rows);
  };
  const Value a = make_matrix(2, 1);
  const Value b = make_matrix(-1, 3);
  Value c_plain = make_matrix(0, 0);
  Value c_rewritten = make_matrix(0, 0);
  skilc::run_function(plain.instantiated, "matmul", {a, b, c_plain});
  skilc::run_function(rewritten.instantiated, "matmul", {a, b, c_rewritten});
  EXPECT_TRUE(skilc::value_bits_equal(c_plain, c_rewritten));
}

TEST(SkelRunDifferential, FoldRewriteIsBitIdenticalOnTheEmptyArray) {
  // The sequential loop runs zero times and the accumulator keeps its
  // seed; the rewritten form must not reach the canonical fold's
  // unconditional a[part_lower(a)] read.
  const CompileResult plain = compile_plain(kSeqDot);
  const CompileResult rewritten = compile_skeletonized(kSeqDot);
  ASSERT_EQ(rewritten.skeletonize.recognized_fold, 1);

  const Value a = skilc::run_function(plain.instantiated, "dot", {int_array({})});
  const Value b =
      skilc::run_function(rewritten.instantiated, "dot", {int_array({})});
  EXPECT_TRUE(skilc::value_bits_equal(a, b));
  EXPECT_EQ(b.i, 0);
}

TEST(SkelRunDifferential, MapRewriteIsBitIdenticalOnTheEmptyArray) {
  const CompileResult plain = compile_plain(kSeqMap);
  const CompileResult rewritten = compile_skeletonized(kSeqMap);
  ASSERT_EQ(rewritten.skeletonize.recognized_map, 1);

  Value ys_plain = float_array({});
  Value ys_rewritten = float_array({});
  skilc::run_function(plain.instantiated, "scale",
                      {float_array({}), ys_plain, Value::of_float(2.5)});
  skilc::run_function(rewritten.instantiated, "scale",
                      {float_array({}), ys_rewritten, Value::of_float(2.5)});
  EXPECT_TRUE(skilc::value_bits_equal(ys_plain, ys_rewritten));
}

TEST(SkelRunDifferential, MapBoundedByTheDestinationIsNotRewritten) {
  // `b[i] = a[i] * 2` bounded by len(b): the skeleton would traverse
  // `a`, so with len(b) < len(a) a rewrite would change the trip
  // count.  Recognition must refuse, and the untouched program keeps
  // its sequential semantics.
  const char* source = R"(int len (array <int> a);

void double_into (array <int> a, array <int> b) {
  int i;
  for (i = 0; i < len(b); i = i + 1) {
    b[i] = a[i] * 2;
  }
}
)";
  const CompileResult plain = compile_plain(source);
  const CompileResult rewritten = compile_skeletonized(source);
  EXPECT_EQ(rewritten.skeletonize.recognized(), 0);
  EXPECT_EQ(rewritten.skeletonize.rejected_bounds, 1);

  const std::vector<long> a = {1, 2, 3, 4, 5, 6};
  Value b_plain = int_array({0, 0, 0});
  Value b_rewritten = int_array({0, 0, 0});
  skilc::run_function(plain.instantiated, "double_into",
                      {int_array(a), b_plain});
  skilc::run_function(rewritten.instantiated, "double_into",
                      {int_array(a), b_rewritten});
  EXPECT_TRUE(skilc::value_bits_equal(b_plain, b_rewritten));
  EXPECT_EQ((*b_rewritten.array)[2].i, 6);
}

TEST(SkelRunDifferential, RectangularNestIsNotRewritten) {
  // A valid 2x3 * 3x2 product iterates j over len(c), which differs
  // from len(b): the skeleton's j dimension spans len(b), so the nest
  // must stay sequential.
  const char* source = R"(int len (array <array <int> > a);

void matmul_rect (array <array <int> > a, array <array <int> > b,
                  array <array <int> > c) {
  int i;
  int j;
  int k;
  for (i = 0; i < len(a); i = i + 1) {
    for (j = 0; j < len(c); j = j + 1) {
      for (k = 0; k < len(b); k = k + 1) {
        c[i][j] = c[i][j] + a[i][k] * b[k][j];
      }
    }
  }
}
)";
  const CompileResult plain = compile_plain(source);
  const CompileResult rewritten = compile_skeletonized(source);
  EXPECT_EQ(rewritten.skeletonize.recognized(), 0);
  EXPECT_EQ(rewritten.skeletonize.rejected_bounds, 1);

  // a: 2x3, b: 3x2, c: 2x2 -- len(c) == 2 != len(b) == 3.
  const Value a = Value::of_array(
      {int_array({1, 2, 3}), int_array({4, 5, 6})});
  const Value b = Value::of_array(
      {int_array({7, 8}), int_array({9, 10}), int_array({11, 12})});
  Value c_plain = Value::of_array({int_array({0, 0}), int_array({0, 0})});
  Value c_rewritten = Value::of_array({int_array({0, 0}), int_array({0, 0})});
  skilc::run_function(plain.instantiated, "matmul_rect", {a, b, c_plain});
  skilc::run_function(rewritten.instantiated, "matmul_rect",
                      {a, b, c_rewritten});
  EXPECT_TRUE(skilc::value_bits_equal(c_plain, c_rewritten));
  EXPECT_EQ((*c_rewritten.array)[0].array->at(0).i, 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_EQ((*c_rewritten.array)[1].array->at(1).i, 4 * 8 + 5 * 10 + 6 * 12);
}

// --- engine cross-checks: rewritten program vs the real skeletons ----------

class SkelRunEngines : public ::testing::TestWithParam<ExecutionEngine> {};

TEST_P(SkelRunEngines, MapMatchesLibrarySkeleton) {
  const CompileResult rewritten = compile_skeletonized(kSeqMap);
  ASSERT_EQ(rewritten.skeletonize.recognized_map, 1);

  const int n = 24;
  std::vector<double> xs(n);
  for (int i = 0; i < n; ++i) xs[i] = 0.37 * i - 2.5;
  const double w = 1.625;

  Value ys_interp = float_array(std::vector<double>(n, 0.0));
  skilc::run_function(rewritten.instantiated, "scale",
                      {float_array(xs), ys_interp, Value::of_float(w)});

  std::vector<double> ys_engine;
  with_engine(GetParam(), [&] {
    RunConfig config{4, CostModel::t800()};
    return parix::spmd_run(config, [&](Proc& proc) {
      auto a = array_create<double>(
          proc, 1, Size{n},
          [&](Index ix) { return xs[static_cast<std::size_t>(ix[0])]; });
      auto b = array_create<double>(proc, 1, Size{n},
                                    [](Index) { return 0.0; });
      array_map([w](double v, Index) { return w * v + 1.0; }, a, b);
      // Every processor gathers (a collective); one stores the result,
      // so the host-side vector has a single writer.
      std::vector<double> gathered = array_gather_all(b);
      if (proc.id() == 0) ys_engine = std::move(gathered);
    });
  });

  ASSERT_EQ(ys_engine.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(skilc::value_bits_equal(ys_interp, float_array(ys_engine)));
}

TEST_P(SkelRunEngines, FoldMatchesLibrarySkeleton) {
  const CompileResult rewritten = compile_skeletonized(kSeqDot);
  ASSERT_EQ(rewritten.skeletonize.recognized_fold, 1);

  const int n = 32;
  std::vector<long> xs(n);
  for (int i = 0; i < n; ++i) xs[i] = 7 * i - 40;

  const Value interp =
      skilc::run_function(rewritten.instantiated, "dot", {int_array(xs)});

  long engine_sum = 0;
  with_engine(GetParam(), [&] {
    RunConfig config{4, CostModel::t800()};
    return parix::spmd_run(config, [&](Proc& proc) {
      auto a = array_create<long>(
          proc, 1, Size{n},
          [&](Index ix) { return xs[static_cast<std::size_t>(ix[0])]; });
      const long sum = array_fold([](long v, Index) { return v * v; },
                                  [](long x, long y) { return x + y; }, a);
      if (proc.id() == 0) engine_sum = sum;
    });
  });

  EXPECT_EQ(interp.i, engine_sum);
}

TEST_P(SkelRunEngines, GenMultMatchesLibrarySkeleton) {
  const CompileResult rewritten = compile_skeletonized(kSeqMatmul);
  ASSERT_EQ(rewritten.skeletonize.recognized_gen_mult, 1);

  const int n = 8;
  auto elem_a = [](int i, int j) { return static_cast<long>(3 * i - j + 1); };
  auto elem_b = [](int i, int j) { return static_cast<long>(i + 2 * j - 5); };

  std::vector<Value> rows_a, rows_b, rows_c;
  for (int i = 0; i < n; ++i) {
    std::vector<long> ra, rb, rc;
    for (int j = 0; j < n; ++j) {
      ra.push_back(elem_a(i, j));
      rb.push_back(elem_b(i, j));
      rc.push_back(0);
    }
    rows_a.push_back(int_array(ra));
    rows_b.push_back(int_array(rb));
    rows_c.push_back(int_array(rc));
  }
  const Value c_interp = Value::of_array(rows_c);
  skilc::run_function(rewritten.instantiated, "matmul",
                      {Value::of_array(rows_a), Value::of_array(rows_b),
                       c_interp});

  support::Matrix<long> engine_c;
  with_engine(GetParam(), [&] {
    RunConfig config{4, CostModel::t800()};
    return parix::spmd_run(config, [&](Proc& proc) {
      auto a = array_create<long>(
          proc, 2, Size{n, n},
          [&](Index ix) { return elem_a(ix[0], ix[1]); }, Distr::kTorus2D);
      auto b = array_create<long>(
          proc, 2, Size{n, n},
          [&](Index ix) { return elem_b(ix[0], ix[1]); }, Distr::kTorus2D);
      auto c = array_create<long>(proc, 2, Size{n, n},
                                  [](Index) { return 0L; }, Distr::kTorus2D);
      array_gen_mult(a, b,
                     [](long x, long y) { return x + y; },
                     [](long x, long y) { return x * y; }, c);
      support::Matrix<long> gathered = array_gather_matrix(c);
      if (proc.id() == 0) engine_c = std::move(gathered);
    });
  });

  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(engine_c(i, j),
                (*c_interp.array)[static_cast<std::size_t>(i)]
                    .array->at(static_cast<std::size_t>(j))
                    .i)
          << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SkelRunEngines,
                         ::testing::Values(ExecutionEngine::kThreads,
                                           ExecutionEngine::kPooled),
                         [](const auto& info) {
                           return info.param == ExecutionEngine::kThreads
                                      ? "threads"
                                      : "pooled";
                         });

// --- fuzz: random pure bodies never change a bit ---------------------------

/// A random pure int expression over `xs[i]`, the free scalar `w` and
/// small literals, with +, - and * (all wrapping, all associative or
/// not -- irrelevant: the rewrite must preserve bits either way).
std::string random_elem_expr(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> pick_leaf(0, 2);
  std::uniform_int_distribution<int> pick_op(0, 2);
  std::uniform_int_distribution<int> pick_lit(0, 9);
  if (depth <= 0) {
    switch (pick_leaf(rng)) {
      case 0: return "xs[i]";
      case 1: return "w";
      default: return std::to_string(pick_lit(rng));
    }
  }
  const char* ops[] = {"+", "-", "*"};
  return "(" + random_elem_expr(rng, depth - 1) + " " + ops[pick_op(rng)] +
         " " + random_elem_expr(rng, depth - 1) + ")";
}

/// As random_elem_expr, but guaranteed to read the source array (a
/// body with no element read is a constant fill for map and a
/// rejection for fold -- both out of scope for this fuzz).
std::string random_sourced_expr(std::mt19937& rng, int depth) {
  const std::string body = random_elem_expr(rng, depth);
  if (body.find("xs[i]") != std::string::npos) return body;
  return "(xs[i] + " + body + ")";
}

TEST(SkelRunFuzz, RandomMapBodiesAreBitIdentical) {
  std::mt19937 rng(19960528);
  std::uniform_int_distribution<int> pick_depth(1, 3);
  std::uniform_int_distribution<long> pick_val(-1000, 1000);
  std::uniform_int_distribution<std::size_t> pick_len(0, 17);
  for (int round = 0; round < 30; ++round) {
    const std::string body = random_sourced_expr(rng, pick_depth(rng));
    const std::string source = "int len (array <int> a);\n\n"
                               "void f (array <int> xs, array <int> ys, "
                               "int w) {\n"
                               "  int i;\n"
                               "  for (i = 0; i < len(xs); i = i + 1) {\n"
                               "    ys[i] = " + body + ";\n"
                               "  }\n"
                               "}\n";
    const CompileResult plain = compile_plain(source);
    const CompileResult rewritten = compile_skeletonized(source);
    ASSERT_EQ(rewritten.skeletonize.recognized_map, 1) << source;

    std::vector<long> xs(pick_len(rng));
    for (long& v : xs) v = pick_val(rng);
    const Value w = Value::of_int(pick_val(rng));
    Value ys_plain = int_array(std::vector<long>(xs.size(), 0));
    Value ys_rewritten = int_array(std::vector<long>(xs.size(), 0));
    skilc::run_function(plain.instantiated, "f",
                        {int_array(xs), ys_plain, w});
    skilc::run_function(rewritten.instantiated, "f",
                        {int_array(xs), ys_rewritten, w});
    EXPECT_TRUE(skilc::value_bits_equal(ys_plain, ys_rewritten)) << source;
  }
}

TEST(SkelRunFuzz, RandomFoldBodiesAreBitIdentical) {
  std::mt19937 rng(777);
  std::uniform_int_distribution<int> pick_depth(0, 2);
  std::uniform_int_distribution<int> pick_op(0, 1);
  std::uniform_int_distribution<long> pick_val(-50, 50);
  std::uniform_int_distribution<std::size_t> pick_len(0, 11);
  for (int round = 0; round < 30; ++round) {
    const bool mult = pick_op(rng) == 1;
    const std::string op = mult ? "*" : "+";
    const std::string seed = mult ? "1" : "0";
    const std::string body = random_sourced_expr(rng, pick_depth(rng));
    const std::string source = "int len (array <int> a);\n\n"
                               "int f (array <int> xs, int w) {\n"
                               "  int total = " + seed + ";\n"
                               "  int i;\n"
                               "  for (i = 0; i < len(xs); i = i + 1) {\n"
                               "    total = total " + op + " " + body + ";\n"
                               "  }\n"
                               "  return total;\n"
                               "}\n";
    const CompileResult plain = compile_plain(source);
    const CompileResult rewritten = compile_skeletonized(source);
    ASSERT_EQ(rewritten.skeletonize.recognized_fold, 1) << source;

    std::vector<long> xs(pick_len(rng));
    for (long& v : xs) v = pick_val(rng);
    const Value w = Value::of_int(pick_val(rng));
    const Value a = skilc::run_function(plain.instantiated, "f",
                                        {int_array(xs), w});
    const Value b = skilc::run_function(rewritten.instantiated, "f",
                                        {int_array(xs), w});
    EXPECT_TRUE(skilc::value_bits_equal(a, b)) << source;
  }
}

}  // namespace
