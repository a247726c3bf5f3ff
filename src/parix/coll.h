// Collective-algorithm selection (the "zoo") and its counters.
//
// The seed runtime had exactly two communication shapes: the binomial
// tree that reduce/broadcast walk and the torus rotations gen_mult
// uses.  PR 9 adds ring and recursive-doubling families so each
// collective can pick the algorithm whose modeled cost (startup alpha,
// per-byte beta, per-hop fee -- see parix/cost_model.h) is lowest for
// the payload size and the topology's embedding dilation.
//
// SKIL_COLL selects the family:
//   tree  -- the seed algorithms (binomial reduce/broadcast, gather+
//            broadcast allgather).  Bit-identical to every pre-zoo
//            golden, message for message.
//   ring  -- ring allgather / chain and chunk-pipelined broadcast /
//            ring reduce-scatter + allgather for elementwise allreduce.
//   rd    -- recursive doubling: Bruck allgather, Rabenseifner
//            (halving + doubling) elementwise allreduce; broadcast
//            stays binomial (the tree *is* the recursive-doubling
//            shape for rooted one-to-all).
//   auto  -- per-call argmin over the modeled costs (the default).
//
// Array results are bit-identical across all modes: scalar allreduce
// replays the exact binomial-tree bracketing locally after an
// allgather of the raw contributions, and elementwise allreduce only
// uses reassociating algorithms when the caller declares the operator
// order-insensitive (CollOrder::kExact).  Virtual times differ by
// mode and are pinned by per-algorithm goldens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>

namespace skil::parix {

/// Which collective-algorithm family to use (SKIL_COLL).
enum class CollMode {
  kTree = 0,  ///< seed binomial-tree algorithms only
  kRing,      ///< ring family
  kRd,        ///< recursive-doubling family
  kAuto,      ///< pick per call from modeled cost (default)
};

/// Per-call default, initialised from SKIL_COLL and overridable with
/// set_default_coll_mode.  Unknown SKIL_COLL values fail loudly.
CollMode default_coll_mode();
void set_default_coll_mode(CollMode mode);
CollMode parse_coll_mode(std::string_view name);
std::string_view coll_mode_name(CollMode mode);

/// The collectives the counters distinguish.  Composite tree paths
/// count their building blocks too (a tree allreduce notes one
/// allreduce call plus the nested reduce and broadcast calls).
enum class CollOp {
  kBroadcast = 0,
  kReduce,
  kAllreduce,
  kAllgather,
};
inline constexpr int kNumCollOps = 4;
std::string_view coll_op_name(CollOp op);

/// The concrete algorithm a call resolved to.
enum class CollAlgo {
  kTree = 0,       ///< binomial tree (seed behaviour)
  kRing,           ///< ring chain / pipeline / reduce-scatter
  kRecDouble,      ///< recursive doubling (Bruck allgather)
  kRabenseifner,   ///< recursive halving + doubling elementwise allreduce
};
inline constexpr int kNumCollAlgos = 4;
std::string_view coll_algo_name(CollAlgo algo);

/// Whether an elementwise reduction operator's result may depend on
/// evaluation order.  kExact operators (integer ops, min/max, bitwise)
/// admit the reassociating algorithms; kChainOnly operators (FP sums
/// whose rounding is the scientific artefact) force the tree so the
/// combine bracketing never changes.
enum class CollOrder {
  kExact = 0,     ///< any bracketing yields identical bits
  kChainOnly,     ///< bracketing is part of the result; tree only
};

/// Which selection function a kAuto pick came from.  With the payload
/// size it names everything a pick depends on besides the embedding.
enum class CollSite {
  kBroadcast = 0,     ///< unhinted broadcast (ring = chain walk)
  kBroadcastChunked,  ///< hinted vector broadcast (ring = pipelined)
  kAllgather,
  kAllreduce,
  kAllreduceElems,
};

/// Per-processor memo of SKIL_COLL=auto picks (collectives.h).  A pick
/// is a pure function of the embedding, the cost model, the call site
/// and the payload size.  A processor's machine and cost model are
/// fixed, and (topology kind, communicator id) names the embedding
/// exactly, so the O(p log p) estimators run once per key.  Owned by
/// one Proc, which one fiber drives at a time, so it takes no lock.
class CollPickMemo {
 public:
  /// (Topology::kind(), Topology::comm_id(), call site, payload bytes).
  using Key = std::tuple<int, int, CollSite, std::size_t>;

  /// The memoized pick for `key`; on a miss, `pick()` computes it.
  template <class F>
  CollAlgo get(const Key& key, F&& pick) {
    if (const auto it = table_.find(key); it != table_.end()) return it->second;
    return table_.emplace(key, pick()).first->second;
  }

  /// Number of memoized picks.
  std::size_t size() const { return table_.size(); }

 private:
  std::map<Key, CollAlgo> table_;
};

/// Per-processor collective statistics, summed into RunResult::coll.
/// Host-side diagnostics only -- never read by the cost model, so
/// recording them cannot perturb virtual time.
struct CollectiveCounters {
  /// calls[op][algo]: how many calls of `op` resolved to `algo`.
  std::uint64_t calls[kNumCollOps][kNumCollAlgos] = {};
  /// Payload bytes this processor sent inside `op` (wire size).
  std::uint64_t bytes[kNumCollOps] = {};
  /// Sum of mesh hop distances of those sends (embedding dilation).
  std::uint64_t hops[kNumCollOps] = {};
  /// Communication rounds this processor took part in.
  std::uint64_t steps[kNumCollOps] = {};
  /// Elementwise allreduces where a chain-only operator forced the
  /// tree although the mode asked for a reassociating algorithm.
  std::uint64_t order_fallbacks = 0;

  CollectiveCounters& operator+=(const CollectiveCounters& other) {
    for (int op = 0; op < kNumCollOps; ++op) {
      for (int algo = 0; algo < kNumCollAlgos; ++algo)
        calls[op][algo] += other.calls[op][algo];
      bytes[op] += other.bytes[op];
      hops[op] += other.hops[op];
      steps[op] += other.steps[op];
    }
    order_fallbacks += other.order_fallbacks;
    return *this;
  }

  bool operator==(const CollectiveCounters&) const = default;

  /// Total calls across ops that resolved to `algo`.
  std::uint64_t calls_for(CollAlgo algo) const {
    std::uint64_t n = 0;
    for (int op = 0; op < kNumCollOps; ++op)
      n += calls[op][static_cast<int>(algo)];
    return n;
  }

  /// Total calls across all ops and algorithms.
  std::uint64_t total_calls() const {
    std::uint64_t n = 0;
    for (int algo = 0; algo < kNumCollAlgos; ++algo)
      n += calls_for(static_cast<CollAlgo>(algo));
    return n;
  }
};

/// Appends `c` as the JSON object the metrics JSON writes compact as
/// "collectives" and the BENCH reports spaced as "coll_counters": per
/// op its calls by algorithm, bytes, hops and steps, then
/// order_fallbacks.
void write_coll_json(std::string& out, const CollectiveCounters& c,
                     bool spaced);

}  // namespace skil::parix
