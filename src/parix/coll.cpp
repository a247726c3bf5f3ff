#include "parix/coll.h"

#include <cstdlib>

#include "support/env.h"
#include "support/fields.h"

namespace skil::parix {

namespace {

CollMode initial_default_coll_mode() {
  if (const char* env = std::getenv("SKIL_COLL"))
    return parse_coll_mode(env);
  return CollMode::kAuto;
}

CollMode& default_coll_mode_slot() {
  static CollMode mode = initial_default_coll_mode();
  return mode;
}

}  // namespace

CollMode parse_coll_mode(std::string_view name) {
  static constexpr std::string_view kNames[] = {"tree", "ring", "rd", "auto"};
  static_assert(static_cast<int>(CollMode::kTree) == 0 &&
                static_cast<int>(CollMode::kRing) == 1 &&
                static_cast<int>(CollMode::kRd) == 2 &&
                static_cast<int>(CollMode::kAuto) == 3);
  return support::parse_knob<CollMode>("SKIL_COLL", "collective mode", name,
                                       kNames);
}

std::string_view coll_mode_name(CollMode mode) {
  switch (mode) {
    case CollMode::kTree: return "tree";
    case CollMode::kRing: return "ring";
    case CollMode::kRd: return "rd";
    case CollMode::kAuto: return "auto";
  }
  return "?";
}

CollMode default_coll_mode() { return default_coll_mode_slot(); }

void set_default_coll_mode(CollMode mode) { default_coll_mode_slot() = mode; }

std::string_view coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kBroadcast: return "broadcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAllgather: return "allgather";
  }
  return "?";
}

std::string_view coll_algo_name(CollAlgo algo) {
  switch (algo) {
    case CollAlgo::kTree: return "tree";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kRecDouble: return "rd";
    case CollAlgo::kRabenseifner: return "rabenseifner";
  }
  return "?";
}

void write_coll_json(std::string& out, const CollectiveCounters& c,
                     bool spaced) {
  support::JsonObject all(out, spaced);
  for (int op = 0; op < kNumCollOps; ++op) {
    support::JsonObject one = all.object(coll_op_name(static_cast<CollOp>(op)));
    support::JsonObject calls = one.object("calls");
    for (int algo = 0; algo < kNumCollAlgos; ++algo)
      calls.num(coll_algo_name(static_cast<CollAlgo>(algo)), c.calls[op][algo]);
    calls.close();
    one.num("bytes", c.bytes[op]).num("hops", c.hops[op]);
    one.num("steps", c.steps[op]).close();
  }
  all.num("order_fallbacks", c.order_fallbacks).close();
}

}  // namespace skil::parix
