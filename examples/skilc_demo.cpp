// skilc: the Skil compiler front end as a command-line demo.
//
// Runs the pipeline of paper sections 2.2-2.4 -- parse, polymorphic
// type check, translation by instantiation, C emission -- either on a
// file given as argument or on the paper's built-in section 2.4
// example, and prints the resulting first-order monomorphic C.
//
//     ./skilc_demo [--skeletonize] [file.skil]
//
// With --skeletonize the auto-skeletonization pass (DESIGN.md section
// 16) rewrites recognized sequential loops into skeleton calls before
// translation, and a summary of its decisions is printed.  --help and
// unknown flags print the usage line and exit 2 (support::Cli).
#include <cstdio>
#include <fstream>
#include <sstream>

#include "parix/runtime.h"
#include "skilc/compiler.h"
#include "support/cli.h"
#include "support/error.h"

namespace {

const char* kPaperExample = R"(// The paper's section 2.4 example.
pardata array <$t> implementation_hidden;

Index mk_index(int i);
int part_lower(array <$t> a);
int part_upper(array <$t> a);

// The map skeleton: a polymorphic higher-order function.
void array_map ($t2 map_f ($t1, Index), array <$t1> a, array <$t2> b) {
  int i;
  for (i = part_lower(a); i < part_upper(a); i = i + 1)
    b[i] = map_f(a[i], mk_index(i));
}

// The customizing function; its first argument is supplied by
// partial application at the call site.
int above_thresh (float thresh, float elem, Index ix) {
  return elem >= thresh;
}

void threshold_all (float t, array <float> A, array <int> B) {
  array_map(above_thresh(t), A, B);
}
)";

}  // namespace

int main(int argc, char** argv) {
  const skil::support::Cli cli(argc, argv, {}, {"skeletonize"});
  skil::parix::require_env_knobs(cli.program());
  skil::skilc::CompileOptions options;
  options.skeletonize = cli.get_bool("skeletonize");
  const char* path =
      cli.positional().empty() ? nullptr : cli.positional().back().c_str();

  std::string source;
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    std::printf("// input: %s\n\n", path);
  } else {
    source = kPaperExample;
    std::printf("// no input file given -- compiling the paper's "
                "section 2.4 example\n\n");
  }

  std::printf("---- Skil source "
              "------------------------------------------------\n%s\n",
              source.c_str());
  try {
    const skil::skilc::CompileResult result =
        skil::skilc::compile(source, options);
    if (options.skeletonize) {
      std::printf("---- skeletonization "
                  "--------------------------------------------\n");
      const skil::skilc::SkeletonizeCounters& sk = result.skeletonize;
      std::printf("// %d loop(s) seen, %d recognized (%d map, %d fold, "
                  "%d gen_mult), %d rejected\n",
                  sk.loops_seen, sk.recognized(), sk.recognized_map,
                  sk.recognized_fold, sk.recognized_gen_mult, sk.rejected());
      for (const skil::skilc::Diagnostic& diag : result.diagnostics) {
        if (diag.pass != "skeletonize") continue;
        std::printf("// line %d: %s\n", diag.span.line, diag.message.c_str());
      }
      std::printf("\n");
    }
    std::printf("---- after type checking and translation by instantiation "
                "------\n%s",
                result.c_code.c_str());
    std::printf("// %zu function(s) in the first-order monomorphic "
                "output\n",
                result.instantiated.functions.size());
  } catch (const skil::support::Error& e) {
    std::fprintf(stderr, "skilc: %s\n", e.what());
    return 1;
  }
  return 0;
}
