// Property tests across the whole skilc pipeline: the emitted
// first-order code must itself be a valid, type-correct, already
// fully-instantiated Skil program (the compiler's output language is a
// subset of its input language -- Skil minus the functional features).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "skilc/compiler.h"
#include "skilc/emit.h"
#include "skilc/instantiate.h"
#include "skilc/parser.h"
#include "skilc/typecheck.h"

namespace {

using namespace skil::skilc;

const char* kPrograms[] = {
    // the paper's section 2.4 example
    R"(
      pardata array <$t> impl;
      Index mk_index(int i);
      int part_lower(array <$t> a);
      int part_upper(array <$t> a);
      void array_map ($t2 map_f ($t1, Index), array <$t1> a, array <$t2> b) {
        int i;
        for (i = part_lower(a); i < part_upper(a); i = i + 1)
          b[i] = map_f(a[i], mk_index(i));
      }
      int above_thresh (float thresh, float elem, Index ix) {
        return elem >= thresh;
      }
      void threshold_all (float t, array <float> A, array <int> B) {
        array_map(above_thresh(t), A, B);
      }
    )",
    // folds with sections over two element types
    R"(
      pardata array <$t> impl;
      int len(array <$t> a);
      $t2 fold ($t2 f ($t2, $t2), array <$t2> a) {
        $t2 acc = a[0];
        int i;
        for (i = 1; i < len(a); i = i + 1) acc = f(acc, a[i]);
        return acc;
      }
      int isum (array <int> l) { return fold((+), l); }
      float fprod (array <float> l) { return fold((*), l); }
      int imax2 (int a, int b) { if (a > b) return a; return b; }
      int imax (array <int> l) { return fold(imax2, l); }
    )",
    // self-recursive HOF + polymorphic identity + curried application
    R"(
      int reduce (int f (int, int), int solve (int), int n) {
        if (n <= 1) return solve(n);
        return f(reduce(f, solve, n - 1), solve(n));
      }
      int add (int a, int b) { return a + b; }
      $t id ($t x) { return x; }
      int total (int n) { return reduce(add, id, n) + add(1)(2); }
      float fid (float x) { return id(x); }
    )",
};

class Pipeline : public ::testing::TestWithParam<int> {};

TEST_P(Pipeline, EmittedCodeReparsesTypechecksAndIsAFixedPoint) {
  const CompileResult first = compile(kPrograms[GetParam()]);

  // Portable (unmangled) emission stays inside the Skil language:
  // 1. it parses,
  const std::string portable = emit_program(first.instantiated,
                                            /*mangle=*/false);
  Program reparsed = parse(portable);
  // 2. it type checks,
  EXPECT_NO_THROW(typecheck(reparsed));
  // 3. and it is already first-order and monomorphic, so a second
  //    instantiation is the identity up to emission.
  const Program again = instantiate(reparsed);
  EXPECT_EQ(emit_program(again, /*mangle=*/false), portable);
}

TEST_P(Pipeline, OutputContainsNoFunctionalFeatures) {
  const CompileResult result = compile(kPrograms[GetParam()]);
  for (const Function& fn : result.instantiated.functions) {
    EXPECT_FALSE(fn.is_hof()) << fn.name;
    for (const Param& param : fn.params)
      EXPECT_NE(param.type->kind, Type::Kind::kFunction) << fn.name;
    // No type variable survives anywhere in the emitted function (the
    // pardata *header* legitimately keeps its $t parameter).
    Program solo;
    solo.functions.push_back(fn.clone());
    EXPECT_EQ(emit_program(solo).find('$'), std::string::npos) << fn.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, Pipeline, ::testing::Values(0, 1, 2));

TEST(Pipeline, FoldInstancesPerElementType) {
  const CompileResult result = compile(kPrograms[1]);
  // int-fold with (+), float-fold with (*), int-fold with imax2:
  // three distinct instances (section signatures and element types
  // distinguish them).
  int fold_instances = 0;
  for (const Function& fn : result.instantiated.functions)
    if (fn.name.rfind("fold_", 0) == 0) ++fold_instances;
  EXPECT_EQ(fold_instances, 3);
}

TEST(Pipeline, PardataSurvivesUninstantiatedTypeVarHeader) {
  // The pardata declaration itself keeps its type parameter -- only
  // *uses* are monomorphised.
  const CompileResult result = compile(kPrograms[0]);
  ASSERT_EQ(result.instantiated.pardatas.size(), 1u);
  EXPECT_EQ(result.instantiated.pardatas[0].name, "array");
}

// --- float literals ---------------------------------------------------------
//
// The emitter must spell a float literal so that it still lexes as a
// float (1.0, not 1, which would re-type the expression as int) and
// reads back as the same double (3.14159265, not 3.14159).

/// The value of the float literal returned by function `name`.
double returned_float(const Program& program, const std::string& name) {
  for (const Function& fn : program.functions) {
    if (fn.name != name || fn.is_prototype) continue;
    for (const StmtPtr& stmt : fn.body) {
      if (stmt->kind != Stmt::Kind::kReturn) continue;
      const Expr* e = stmt->expr.get();
      while (e != nullptr && e->kind == Expr::Kind::kBinary) e = e->lhs.get();
      if (e != nullptr && e->kind == Expr::Kind::kFloatLit) return e->float_value;
    }
  }
  ADD_FAILURE() << "no returned float literal in " << name;
  return -1.0;
}

const char* kFloatProgram = R"(
  float half(float d) { return 1.0 / d; }
  float pi_times(float r) { return 3.14159265 * r; }
)";

TEST(FloatLiterals, EmittedCodeKeepsTheDecimalPointAndEveryDigit) {
  const CompileResult result = compile(kFloatProgram);
  EXPECT_NE(result.c_code.find("return 1.0 / d;"), std::string::npos)
      << result.c_code;
  EXPECT_NE(result.c_code.find("return 3.14159265 * r;"), std::string::npos)
      << result.c_code;
}

TEST(FloatLiterals, EmittedCodeReparsesTypechecksAndRoundTripsBitExactly) {
  const CompileResult result = compile(kFloatProgram);
  const std::string portable =
      emit_program(result.instantiated, /*mangle=*/false);
  Program reparsed = parse(portable);
  ASSERT_NO_THROW(typecheck(reparsed)) << portable;
  for (const char* name : {"half", "pi_times"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(returned_float(reparsed, name)),
              std::bit_cast<std::uint64_t>(
                  returned_float(result.instantiated, name)));
  }
  EXPECT_EQ(returned_float(reparsed, "half"), 1.0);
  EXPECT_EQ(returned_float(reparsed, "pi_times"), 3.14159265);
}

TEST(FloatLiterals, SpellingIsShortestRoundTripWithADecimalPoint) {
  EXPECT_EQ(float_literal(1.0), "1.0");
  EXPECT_EQ(float_literal(0.0), "0.0");
  EXPECT_EQ(float_literal(3.14159265), "3.14159265");
  EXPECT_EQ(float_literal(0.1), "0.1");
  EXPECT_EQ(float_literal(1e20), "100000000000000000000.0");
  for (const double v : {0.1, 2.0 / 3.0, 1e-7, 123456.789, 1e300})
    EXPECT_EQ(std::stod(float_literal(v)), v) << float_literal(v);
}

}  // namespace
