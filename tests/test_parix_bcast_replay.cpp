// Golden suite for the chunk-pipelined ring broadcast
// (coll_detail::broadcast_ring_pipelined; DESIGN.md section 15,
// "Schedule replay").
//
// The broadcast's per-chunk schedule -- 16 chunks streamed down the
// ring chain, every member forwarding chunk c before it takes chunk
// c+1 -- is the artefact the cost model prices.  The values below
// were captured from the message-per-chunk implementation, where every
// chunk was a real host message; the replay that evaluates the same
// schedule on the members' clocks must reproduce all of them bit for
// bit:
//   * per-processor final vtimes, Stats (messages and bytes sent and
//     received, compute_us and comm_us bits) and broadcast counters
//     (bytes, hops, steps), folded into one digest per case;
//   * the delivered buffer on every member;
//   * under full tracing, every processor's event stream, the
//     critical path and the message blocks of the metrics JSON.
// The last group checks that a broken SPMD contract (a member skips
// the broadcast, or throws before its successor is served) still
// fails loudly on both engines instead of hanging.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "parix/collectives.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/runtime.h"
#include "support/error.h"

namespace {

using namespace skil::parix;

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over 64-bit words: a compact fingerprint of many bit-exact
/// quantities, so one table row can pin a whole run.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char ch : s) add(static_cast<std::uint64_t>(ch));
  }
};

double element(int i) { return 0.5 + 1.25 * i - 1e-3 * (i % 17); }

std::vector<double> payload(std::size_t len) {
  std::vector<double> v(len);
  for (std::size_t i = 0; i < len; ++i) v[i] = element(static_cast<int>(i));
  return v;
}

/// The non-zero root of the "hardware root" cases.
int hw_root(int p) { return (2 * p) / 3; }

struct BcastCase {
  int p;
  Distr distr;
  bool vrank0_root;  ///< root = hw_of(vrank 0), else hw_root(p)
  std::size_t len;   ///< doubles broadcast
};

struct Observed {
  RunResult run;
  std::vector<CollectiveCounters> coll;
  int bad_buffers = 0;
};

/// One hinted ring broadcast of `len` doubles.  Entry clocks are
/// staggered and every member books a deferred charge first, so the
/// receive bounds, link-channel queueing and the settlement point in
/// front of the first send/receive are all exercised.
Observed run_case(const BcastCase& c, TraceMode trace = TraceMode::kOff) {
  RunConfig config{c.p, CostModel::t800()};
  config.coll = CollMode::kRing;
  config.trace = trace;
  Observed obs;
  obs.coll.resize(static_cast<std::size_t>(c.p));
  std::vector<int> bad(static_cast<std::size_t>(c.p), 0);
  const std::vector<double> expected = payload(c.len);
  obs.run = spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), c.distr);
    const int root = c.vrank0_root ? topo.hw_of(0) : hw_root(c.p);
    proc.charge_us(13.0 * ((proc.id() * 7) % 5));
    proc.charge_deferred(Op::kFloatOp, 3 * static_cast<std::uint64_t>(proc.id()));
    std::vector<double> v = proc.id() == root ? expected
                                              : std::vector<double>{-1.0, -2.0};
    broadcast(proc, topo, root, v, c.len * sizeof(double));
    bad[static_cast<std::size_t>(proc.id())] = v == expected ? 0 : 1;
    obs.coll[static_cast<std::size_t>(proc.id())] = proc.coll_counters();
  });
  for (const int b : bad) obs.bad_buffers += b;
  return obs;
}

std::uint64_t run_digest(const Observed& obs) {
  Digest d;
  const int bc = static_cast<int>(CollOp::kBroadcast);
  for (std::size_t q = 0; q < obs.run.proc_vtimes.size(); ++q) {
    const Stats& s = obs.run.proc_stats[q];
    d.add(obs.run.proc_vtimes[q]);
    d.add(s.messages_sent);
    d.add(s.messages_received);
    d.add(s.bytes_sent);
    d.add(s.bytes_received);
    d.add(s.compute_us);
    d.add(s.comm_us);
    const CollectiveCounters& cc = obs.coll[q];
    d.add(cc.calls[bc][static_cast<int>(CollAlgo::kRing)]);
    d.add(cc.bytes[bc]);
    d.add(cc.hops[bc]);
    d.add(cc.steps[bc]);
  }
  return d.h;
}

/// The pinned grid: p x distr x root x len = 6 x 3 x 2 x 4 cases, in
/// this order.
std::vector<BcastCase> grid() {
  std::vector<BcastCase> cases;
  for (const int p : {2, 3, 5, 16, 31, 64})
    for (const Distr distr : {Distr::kDefault, Distr::kRing, Distr::kTorus2D})
      for (const bool vrank0_root : {true, false})
        // 7 doubles leave most of the 16 chunks empty; 1000 splits
        // unevenly (62 or 63 per chunk).
        for (const std::size_t len : {0, 7, 1000, 8192})
          cases.push_back({p, distr, vrank0_root, len});
  return cases;
}

struct BcastGolden {
  double vtime_us;
  std::uint64_t messages_sent;
  std::uint64_t digest;
};

// One row per grid() case, in order.
// clang-format off
const BcastGolden kGoldens[] = {
    {0x1.905999999999ap+12, 16, 0x652bb2aa8331c60dull},  // p=2 default vrank0-root len=0
    {0x1.90b3333333333p+12, 16, 0x75080b90fb055d81ull},  // p=2 default vrank0-root len=7
    {0x1.a666666666666p+12, 16, 0xabb26d642cd6b67full},  // p=2 default vrank0-root len=1000
    {0x1.9919999999998p+13, 16, 0xa9d22b1d732447e0ull},  // p=2 default vrank0-root len=8192
    {0x1.93a999999999ap+12, 16, 0xe44c31fc2553ed44ull},  // p=2 default hw-root len=0
    {0x1.9403333333333p+12, 16, 0x6ee28476a1cef8f8ull},  // p=2 default hw-root len=7
    {0x1.a9b6666666666p+12, 16, 0x4146586c62c93d95ull},  // p=2 default hw-root len=1000
    {0x1.9ac1999999998p+13, 16, 0x16f9a3626c4a1b1dull},  // p=2 default hw-root len=8192
    {0x1.905999999999ap+12, 16, 0x652bb2aa8331c60dull},  // p=2 ring vrank0-root len=0
    {0x1.90b3333333333p+12, 16, 0x75080b90fb055d81ull},  // p=2 ring vrank0-root len=7
    {0x1.a666666666666p+12, 16, 0xabb26d642cd6b67full},  // p=2 ring vrank0-root len=1000
    {0x1.9919999999998p+13, 16, 0xa9d22b1d732447e0ull},  // p=2 ring vrank0-root len=8192
    {0x1.93a999999999ap+12, 16, 0xe44c31fc2553ed44ull},  // p=2 ring hw-root len=0
    {0x1.9403333333333p+12, 16, 0x6ee28476a1cef8f8ull},  // p=2 ring hw-root len=7
    {0x1.a9b6666666666p+12, 16, 0x4146586c62c93d95ull},  // p=2 ring hw-root len=1000
    {0x1.9ac1999999998p+13, 16, 0x16f9a3626c4a1b1dull},  // p=2 ring hw-root len=8192
    {0x1.905999999999ap+12, 16, 0x652bb2aa8331c60dull},  // p=2 torus2d vrank0-root len=0
    {0x1.90b3333333333p+12, 16, 0x75080b90fb055d81ull},  // p=2 torus2d vrank0-root len=7
    {0x1.a666666666666p+12, 16, 0xabb26d642cd6b67full},  // p=2 torus2d vrank0-root len=1000
    {0x1.9919999999998p+13, 16, 0xa9d22b1d732447e0ull},  // p=2 torus2d vrank0-root len=8192
    {0x1.93a999999999ap+12, 16, 0xe44c31fc2553ed44ull},  // p=2 torus2d hw-root len=0
    {0x1.9403333333333p+12, 16, 0x6ee28476a1cef8f8ull},  // p=2 torus2d hw-root len=7
    {0x1.a9b6666666666p+12, 16, 0x4146586c62c93d95ull},  // p=2 torus2d hw-root len=1000
    {0x1.9ac1999999998p+13, 16, 0x16f9a3626c4a1b1dull},  // p=2 torus2d hw-root len=8192
    {0x1.329999999999ap+13, 32, 0xb9867b096792da18ull},  // p=3 default vrank0-root len=0
    {0x1.32c6666666667p+13, 32, 0x8e65b0abddf2140eull},  // p=3 default vrank0-root len=7
    {0x1.4879999999999p+13, 32, 0x83678c26a0d12978ull},  // p=3 default vrank0-root len=1000
    {0x1.091p+14, 32, 0x20516c26c7d17cdbull},  // p=3 default vrank0-root len=8192
    {0x1.3c56666666667p+13, 32, 0x7bf0f5d6abcb2ab7ull},  // p=3 default hw-root len=0
    {0x1.3c83333333334p+13, 32, 0x6968e3d914c654c5ull},  // p=3 default hw-root len=7
    {0x1.5d1p+13, 32, 0x86771e55d0897f17ull},  // p=3 default hw-root len=1000
    {0x1.3abb333333333p+14, 32, 0x7fa5f2c65da65e8dull},  // p=3 default hw-root len=8192
    {0x1.329999999999ap+13, 32, 0xb9867b096792da18ull},  // p=3 ring vrank0-root len=0
    {0x1.32c6666666667p+13, 32, 0x8e65b0abddf2140eull},  // p=3 ring vrank0-root len=7
    {0x1.4879999999999p+13, 32, 0x83678c26a0d12978ull},  // p=3 ring vrank0-root len=1000
    {0x1.091p+14, 32, 0x20516c26c7d17cdbull},  // p=3 ring vrank0-root len=8192
    {0x1.3c56666666667p+13, 32, 0x7bf0f5d6abcb2ab7ull},  // p=3 ring hw-root len=0
    {0x1.3c83333333334p+13, 32, 0x6968e3d914c654c5ull},  // p=3 ring hw-root len=7
    {0x1.5d1p+13, 32, 0x86771e55d0897f17ull},  // p=3 ring hw-root len=1000
    {0x1.3abb333333333p+14, 32, 0x7fa5f2c65da65e8dull},  // p=3 ring hw-root len=8192
    {0x1.3906666666667p+13, 32, 0x4850b24a435085c4ull},  // p=3 torus2d vrank0-root len=0
    {0x1.3933333333334p+13, 32, 0x479878e3253f5e6aull},  // p=3 torus2d vrank0-root len=7
    {0x1.59cp+13, 32, 0xeb5054177268daeeull},  // p=3 torus2d vrank0-root len=1000
    {0x1.3913333333333p+14, 32, 0xd7921adbfdcd20cbull},  // p=3 torus2d vrank0-root len=8192
    {0x1.35e999999999ap+13, 32, 0xd2affee7951df6f8ull},  // p=3 torus2d hw-root len=0
    {0x1.3616666666667p+13, 32, 0x3f1ba89ba0976304ull},  // p=3 torus2d hw-root len=7
    {0x1.4bc9999999999p+13, 32, 0x760f0fb080041334ull},  // p=3 torus2d hw-root len=1000
    {0x1.0ab8p+14, 32, 0x2dfeab291c09d6c8ull},  // p=3 torus2d hw-root len=8192
    {0x1.4bf3333333334p+13, 64, 0xe82a4c4cc4e00b19ull},  // p=5 default vrank0-root len=0
    {0x1.4c7999999999bp+13, 64, 0x61ae6815446c9472ull},  // p=5 default vrank0-root len=7
    {0x1.77ep+13, 64, 0x72db6b571e2bd0c0ull},  // p=5 default vrank0-root len=1000
    {0x1.6f56666666666p+14, 64, 0x3d8bdf1dbdd31c21ull},  // p=5 default vrank0-root len=8192
    {0x1.622999999999ap+13, 64, 0x306ff3fe7e79db78ull},  // p=5 default hw-root len=0
    {0x1.6336666666668p+13, 64, 0xae9ef87024483cb6ull},  // p=5 default hw-root len=7
    {0x1.af29999999999p+13, 64, 0x14aea9291c7628aeull},  // p=5 default hw-root len=1000
    {0x1.006cp+15, 64, 0x4d36de749a19d8b1ull},  // p=5 default hw-root len=8192
    {0x1.4bf3333333334p+13, 64, 0xe82a4c4cc4e00b19ull},  // p=5 ring vrank0-root len=0
    {0x1.4c7999999999bp+13, 64, 0x61ae6815446c9472ull},  // p=5 ring vrank0-root len=7
    {0x1.77ep+13, 64, 0x72db6b571e2bd0c0ull},  // p=5 ring vrank0-root len=1000
    {0x1.6f56666666666p+14, 64, 0x3d8bdf1dbdd31c21ull},  // p=5 ring vrank0-root len=8192
    {0x1.622999999999ap+13, 64, 0x306ff3fe7e79db78ull},  // p=5 ring hw-root len=0
    {0x1.6336666666668p+13, 64, 0xae9ef87024483cb6ull},  // p=5 ring hw-root len=7
    {0x1.af29999999999p+13, 64, 0x14aea9291c7628aeull},  // p=5 ring hw-root len=1000
    {0x1.006cp+15, 64, 0x4d36de749a19d8b1ull},  // p=5 ring hw-root len=8192
    {0x1.5f3999999999bp+13, 64, 0xa8a56961f08bada1ull},  // p=5 torus2d vrank0-root len=0
    {0x1.601999999999ap+13, 64, 0x681e1a043ed11369ull},  // p=5 torus2d vrank0-root len=7
    {0x1.ac0cccccccccdp+13, 64, 0x887612d7207f011full},  // p=5 torus2d vrank0-root len=1000
    {0x1.ff6p+14, 64, 0xb8b3d549b436d64cull},  // p=5 torus2d vrank0-root len=8192
    {0x1.622999999999bp+13, 64, 0x9ba5e37c1c4b154cull},  // p=5 torus2d hw-root len=0
    {0x1.630999999999ap+13, 64, 0x6851247aad3d60bcull},  // p=5 torus2d hw-root len=7
    {0x1.aefccccccccccp+13, 64, 0x614d9d07e9fcd271ull},  // p=5 torus2d hw-root len=1000
    {0x1.006cp+15, 64, 0xa179f06150b13eb2ull},  // p=5 torus2d hw-root len=8192
    {0x1.089999999999ap+14, 240, 0xbd1ec14e94aba3d3ull},  // p=16 default vrank0-root len=0
    {0x1.0a9cccccccccfp+14, 240, 0x64a0260c33eae9e2ull},  // p=16 default vrank0-root len=7
    {0x1.8cd0000000002p+14, 240, 0x7da37cfc30d188e4ull},  // p=16 default vrank0-root len=1000
    {0x1.547d99999999bp+16, 240, 0x666a13e290c4245bull},  // p=16 default vrank0-root len=8192
    {0x1.1ce199999999ap+14, 240, 0x0fbc6ac19d210708ull},  // p=16 default hw-root len=0
    {0x1.1f54ccccccccfp+14, 240, 0x1d5c3f99fd8d2e61ull},  // p=16 default hw-root len=7
    {0x1.bca8000000002p+14, 240, 0x5cff3f68fc8f73afull},  // p=16 default hw-root len=1000
    {0x1.918f99999999bp+16, 240, 0x1d14d74b108e662full},  // p=16 default hw-root len=8192
    {0x1.d760000000003p+13, 240, 0xfe881f03326854dcull},  // p=16 ring vrank0-root len=0
    {0x1.d9d3333333339p+13, 240, 0x6d77c692da5d9ffaull},  // p=16 ring vrank0-root len=7
    {0x1.3e4999999999bp+14, 240, 0x379caa0294b33e61ull},  // p=16 ring vrank0-root len=1000
    {0x1.d0eccccccccdp+15, 240, 0xbcc1144fd605ea1cull},  // p=16 ring vrank0-root len=8192
    {0x1.eca999999999dp+13, 240, 0x0e95acbcda0974a6ull},  // p=16 ring hw-root len=0
    {0x1.ef7666666666cp+13, 240, 0x30e3f138ca2ece46ull},  // p=16 ring hw-root len=7
    {0x1.53f4cccccccdp+14, 240, 0xe855f38b41d65389ull},  // p=16 ring hw-root len=1000
    {0x1.0186000000002p+16, 240, 0x6e20b25f7e361ee0ull},  // p=16 ring hw-root len=8192
    {0x1.1573333333335p+14, 240, 0xe328dadd9699c7ccull},  // p=16 torus2d vrank0-root len=0
    {0x1.17b999999999bp+14, 240, 0x5d9f84fc3022e3f6ull},  // p=16 torus2d vrank0-root len=7
    {0x1.afap+14, 240, 0x0cf1e719d413cfd7ull},  // p=16 torus2d vrank0-root len=1000
    {0x1.8480ccccccccep+16, 240, 0xc27b9787c3a73e73ull},  // p=16 torus2d vrank0-root len=8192
    {0x1.19ab333333335p+14, 240, 0x5f58250df92b228eull},  // p=16 torus2d hw-root len=0
    {0x1.1c08p+14, 240, 0x1888ebf411b8250dull},  // p=16 torus2d hw-root len=7
    {0x1.b3ee666666667p+14, 240, 0x8114423f481b6584ull},  // p=16 torus2d hw-root len=1000
    {0x1.858eccccccccfp+16, 240, 0xfc72ec6821b669d5ull},  // p=16 torus2d hw-root len=8192
    {0x1.4ac0000000002p+14, 480, 0x55fe6b4310cb1177ull},  // p=31 default vrank0-root len=0
    {0x1.4d499999999ap+14, 480, 0x0aad397b65827d3bull},  // p=31 default vrank0-root len=7
    {0x1.f0099999999a1p+14, 480, 0x8d975b34d3615b12ull},  // p=31 default vrank0-root len=1000
    {0x1.a83a66666666bp+16, 480, 0x6dc9e75d96251ce9ull},  // p=31 default vrank0-root len=8192
    {0x1.b059999999998p+14, 480, 0x5c41bc046ea94293ull},  // p=31 default hw-root len=0
    {0x1.b56ccccccccd3p+14, 480, 0x89f96745ac0eefa9ull},  // p=31 default hw-root len=7
    {0x1.7ac0000000004p+15, 480, 0x88b9af0499866fe0ull},  // p=31 default hw-root len=1000
    {0x1.8336cccccccc5p+17, 480, 0xccd405f3b912b33bull},  // p=31 default hw-root len=8192
    {0x1.4ac0000000002p+14, 480, 0x55fe6b4310cb1177ull},  // p=31 ring vrank0-root len=0
    {0x1.4d499999999ap+14, 480, 0x0aad397b65827d3bull},  // p=31 ring vrank0-root len=7
    {0x1.f0099999999a1p+14, 480, 0x8d975b34d3615b12ull},  // p=31 ring vrank0-root len=1000
    {0x1.a83a66666666bp+16, 480, 0x6dc9e75d96251ce9ull},  // p=31 ring vrank0-root len=8192
    {0x1.b059999999998p+14, 480, 0x5c41bc046ea94293ull},  // p=31 ring hw-root len=0
    {0x1.b56ccccccccd3p+14, 480, 0x89f96745ac0eefa9ull},  // p=31 ring hw-root len=7
    {0x1.7ac0000000004p+15, 480, 0x88b9af0499866fe0ull},  // p=31 ring hw-root len=1000
    {0x1.8336cccccccc5p+17, 480, 0xccd405f3b912b33bull},  // p=31 ring hw-root len=8192
    {0x1.a7e999999999fp+14, 480, 0xf45d0753a8671973ull},  // p=31 torus2d vrank0-root len=0
    {0x1.ace666666666dp+14, 480, 0xfc0536943f34ce6full},  // p=31 torus2d vrank0-root len=7
    {0x1.767ccccccccd1p+15, 480, 0xe21fc672c414192aull},  // p=31 torus2d vrank0-root len=1000
    {0x1.8228cccccccd1p+17, 480, 0x70946b0452421340ull},  // p=31 torus2d vrank0-root len=8192
    {0x1.ad23333333339p+14, 480, 0xfda5316a12b7ea81ull},  // p=31 torus2d hw-root len=0
    {0x1.b2099999999a1p+14, 480, 0x3f721fdd2a70076aull},  // p=31 torus2d hw-root len=7
    {0x1.7658000000004p+15, 480, 0xa057811de720cbcdull},  // p=31 torus2d hw-root len=1000
    {0x1.7d3666666666ap+17, 480, 0xf3de48f5ba44d082ull},  // p=31 torus2d hw-root len=8192
    {0x1.5ca6666666662p+15, 1008, 0x2e0831ed7deb0dc8ull},  // p=64 default vrank0-root len=0
    {0x1.6181999999999p+15, 1008, 0x781e08826ced0457ull},  // p=64 default vrank0-root len=7
    {0x1.48a7333333332p+16, 1008, 0x7dc3240a651323edull},  // p=64 default vrank0-root len=1000
    {0x1.6690ffffffffbp+18, 1008, 0xdc6935de5a3d054eull},  // p=64 default vrank0-root len=8192
    {0x1.7acbffffffffbp+15, 1008, 0x8ae65a0b99dc5b72ull},  // p=64 default hw-root len=0
    {0x1.8038ccccccccap+15, 1008, 0x83afc8f9ae409d0cull},  // p=64 default hw-root len=7
    {0x1.69a4666666663p+16, 1008, 0x88d1b9073804ad2bull},  // p=64 default hw-root len=1000
    {0x1.8ebc199999994p+18, 1008, 0xa40ea32d4f11154full},  // p=64 default hw-root len=8192
    {0x1.0df1999999997p+15, 1008, 0x64785710b52f6e99ull},  // p=64 ring vrank0-root len=0
    {0x1.10a8000000006p+15, 1008, 0x1fffb843d67544f1ull},  // p=64 ring vrank0-root len=7
    {0x1.bb8b33333333ep+15, 1008, 0x66d0f8a93a061146ull},  // p=64 ring vrank0-root len=1000
    {0x1.a70e66666665fp+17, 1008, 0xe24096cf2c941b9dull},  // p=64 ring vrank0-root len=8192
    {0x1.20d8cccccccc8p+15, 1008, 0x5cf25f91eb40ee02ull},  // p=64 ring hw-root len=0
    {0x1.23d266666666bp+15, 1008, 0xb9e9babfb4fa1cb8ull},  // p=64 ring hw-root len=7
    {0x1.defc00000000ap+15, 1008, 0xad3bf6260625a34dull},  // p=64 ring hw-root len=1000
    {0x1.cd61cccccccc2p+17, 1008, 0x1bc62fcf9d32bbafull},  // p=64 ring hw-root len=8192
    {0x1.6feccccccccccp+15, 1008, 0x6cabd0002bbb81b5ull},  // p=64 torus2d vrank0-root len=0
    {0x1.7543333333339p+15, 1008, 0x44d04e11a0672f83ull},  // p=64 torus2d vrank0-root len=7
    {0x1.62ce66666666cp+16, 1008, 0x8c854152e37fcfb3ull},  // p=64 torus2d vrank0-root len=1000
    {0x1.8a93666666661p+18, 1008, 0xf803691db609f15eull},  // p=64 torus2d vrank0-root len=8192
    {0x1.7930ccccccccbp+15, 1008, 0xaa342d4ccd3a997cull},  // p=64 torus2d hw-root len=0
    {0x1.7e8733333333ap+15, 1008, 0x8345eb1d0a0b5708ull},  // p=64 torus2d hw-root len=7
    {0x1.677066666666cp+16, 1008, 0x646881983494b00eull},  // p=64 torus2d hw-root len=1000
    {0x1.8bbbe66666661p+18, 1008, 0x41d14ef65696c8abull},  // p=64 torus2d hw-root len=8192
};
// clang-format on

const char* distr_name_of(Distr d) {
  switch (d) {
    case Distr::kDefault: return "default";
    case Distr::kRing: return "ring";
    case Distr::kTorus2D: return "torus2d";
    case Distr::kHypercube: return "hypercube";
  }
  return "?";
}

TEST(BcastReplayGolden, VtimesStatsAndCountersArePinnedPerCase) {
  const std::vector<BcastCase> cases = grid();
  ASSERT_EQ(cases.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BcastCase& c = cases[i];
    const BcastGolden& g = kGoldens[i];
    const Observed obs = run_case(c);
    const std::uint64_t digest = run_digest(obs);
    char row[160];
    std::snprintf(row, sizeof row, "p=%d %s %s len=%zu: {%s, %llu, 0x%016llxull},",
                  c.p, distr_name_of(c.distr),
                  c.vrank0_root ? "vrank0-root" : "hw-root", c.len,
                  hex(obs.run.vtime_us).c_str(),
                  static_cast<unsigned long long>(obs.run.total.messages_sent),
                  static_cast<unsigned long long>(digest));
    SCOPED_TRACE(row);
    EXPECT_EQ(obs.run.vtime_us, g.vtime_us);
    EXPECT_EQ(obs.run.total.messages_sent, g.messages_sent);
    EXPECT_EQ(digest, g.digest);
    // Modeled traffic: 16 chunks per ring edge, whatever the host does.
    EXPECT_EQ(obs.run.total.messages_sent,
              16u * static_cast<std::uint64_t>(c.p - 1));
    EXPECT_EQ(obs.run.total.messages_received, obs.run.total.messages_sent);
    EXPECT_EQ(obs.run.total.bytes_received, obs.run.total.bytes_sent);
    EXPECT_EQ(obs.run.coll.bytes[static_cast<int>(CollOp::kBroadcast)],
              obs.run.total.bytes_sent);
    EXPECT_EQ(obs.bad_buffers, 0);
  }
}

TEST(BcastReplayGolden, NonTrivialElementsArePricedLikeTheirChunkVectors) {
  // A string's wire size is its own payload_bytes, so a chunk's size
  // is a sum over its elements rather than a multiple of its length.
  std::vector<std::string> expected;
  for (int i = 0; i < 41; ++i)
    expected.emplace_back(static_cast<std::size_t>(i * 7 % 23),
                          static_cast<char>('a' + i % 26));
  RunConfig config{5, CostModel::t800()};
  config.coll = CollMode::kRing;
  std::atomic<int> bad{0};
  const RunResult run = spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), Distr::kRing);
    std::vector<std::string> v;
    if (proc.id() == 3) v = expected;
    broadcast(proc, topo, 3, v, 400);
    if (v != expected) bad += 1;
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(run.vtime_us, 0x1.6864p+13) << hex(run.vtime_us);
  EXPECT_EQ(run.total.bytes_sent, 3624u);
  EXPECT_EQ(run.total.messages_sent, 16u * 4u);
}

// --- full tracing ----------------------------------------------------------

constexpr BcastCase kTracedCase{31, Distr::kTorus2D, false, 1000};

std::uint64_t event_digest(const Trace& trace) {
  Digest d;
  for (const ProcTrace& lane : trace.procs) {
    d.add(static_cast<std::uint64_t>(lane.proc_id()));
    for (const TraceEvent& e : lane.events()) {
      d.add(static_cast<std::uint64_t>(e.kind));
      d.add(e.vt0);
      d.add(e.vt1);
      if (e.kind != TraceEventKind::kSend && e.kind != TraceEventKind::kRecv)
        continue;
      d.add(static_cast<std::uint64_t>(e.peer));
      d.add(static_cast<std::uint64_t>(e.tag));
      d.add(e.bytes);
      d.add(static_cast<std::uint64_t>(e.seq));
      d.add(static_cast<std::uint64_t>(e.peer_seq));
      d.add(static_cast<std::uint64_t>(e.bound));
    }
  }
  return d.h;
}

/// The "messages_by_tag" and "bytes_by_link" blocks of the metrics
/// JSON, verbatim.
std::string message_blocks(const RunResult& run) {
  std::ostringstream out;
  write_metrics_json(run, out);
  const std::string json = out.str();
  const std::size_t from = json.find("\"messages_by_tag\"");
  const std::size_t to = json.find(",\"critical_path\"");
  if (from == std::string::npos || to == std::string::npos || to < from)
    return {};
  return json.substr(from, to - from);
}

TEST(BcastReplayTrace, FullTraceEventsCriticalPathAndMetricsArePinned) {
  const Observed obs = run_case(kTracedCase, TraceMode::kFull);
  ASSERT_NE(obs.run.trace, nullptr);
  EXPECT_EQ(obs.bad_buffers, 0);
  EXPECT_EQ(obs.run.vtime_us, 0x1.7658000000004p+15) << hex(obs.run.vtime_us);

  std::uint64_t sends = 0, recvs = 0;
  for (const ProcTrace& lane : obs.run.trace->procs)
    for (const TraceEvent& e : lane.events()) {
      sends += e.kind == TraceEventKind::kSend;
      recvs += e.kind == TraceEventKind::kRecv;
    }
  EXPECT_EQ(sends, 16u * 30u);
  EXPECT_EQ(recvs, 16u * 30u);
  EXPECT_EQ(event_digest(*obs.run.trace), 0xc529332cdc9f68c7ull)
      << std::hex << event_digest(*obs.run.trace);

  const CriticalPath path = analyze_critical_path(*obs.run.trace);
  EXPECT_EQ(path.total_us, obs.run.vtime_us);

  const std::string blocks = message_blocks(obs.run);
  ASSERT_FALSE(blocks.empty());
  Digest d;
  d.add(blocks);
  EXPECT_EQ(d.h, 0x1c65d1c17f81df30ull) << std::hex << d.h << "\n" << blocks;
  // Tracing reads the clocks only: the untraced run agrees.
  const Observed plain = run_case(kTracedCase);
  EXPECT_EQ(plain.run.proc_vtimes, obs.run.proc_vtimes);
  EXPECT_EQ(run_digest(plain), run_digest(obs));
}

// --- broken SPMD contracts fail loudly --------------------------------------

struct EngineSetup {
  const char* name;
  ExecutionEngine engine;
  int carriers;  ///< pooled only; 0 = the default width
};

const EngineSetup kEngines[] = {
    {"threads", ExecutionEngine::kThreads, 0},
    {"pooled/1", ExecutionEngine::kPooled, 1},
    {"pooled/4", ExecutionEngine::kPooled, 4},
};

/// Runs `body` on `setup`'s engine and returns the message of the
/// error spmd_run raised ("" when it returned normally).
template <class Body>
std::string run_expecting_failure(const EngineSetup& setup, int p,
                                  Body&& body) {
  if (setup.engine == ExecutionEngine::kPooled)
    executor_set_carriers(setup.carriers);
  RunConfig config{p, CostModel::t800(), setup.engine};
  config.coll = CollMode::kRing;
  std::string what;
  try {
    spmd_run(config, body);
  } catch (const skil::support::Error& e) {
    what = e.what();
    if (what.empty()) what = "?";
  }
  if (setup.engine == ExecutionEngine::kPooled) executor_set_carriers(0);
  return what;
}

TEST(BcastReplayFailure, SkippedBroadcastIsADeadlockOnThePooledEngine) {
  // The member at vrank 2 never calls the broadcast, so its successors
  // wait for a schedule that never comes: the pooled engine sees every
  // live fiber parked.  (The threads engine would only give up after
  // its four-minute receive timeout, which takes_schedule shares with
  // recv; the throwing test below covers that engine.)
  for (const EngineSetup& setup : kEngines) {
    if (setup.engine != ExecutionEngine::kPooled) continue;
    SCOPED_TRACE(setup.name);
    const std::string what = run_expecting_failure(setup, 6, [](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kRing);
      std::vector<double> v = payload(proc.id() == 0 ? 100 : 0);
      if (topo.vrank_of(proc.id()) == 2) return;
      broadcast(proc, topo, 0, v, 100 * sizeof(double));
    });
    EXPECT_FALSE(what.empty()) << "the run returned normally";
  }
}

TEST(BcastReplayFailure, ThrowBeforeServingTheSuccessorPoisonsPeers) {
  // The member at vrank k throws instead of taking part.  Everyone
  // downstream of it must be released with RuntimeFault.  Upstream
  // members either complete (with the right buffer) or are released
  // the same way if the poison overtakes them; the root never waits,
  // so it always completes.
  constexpr int kP = 7;
  for (const EngineSetup& setup : kEngines) {
    for (const int k : {0, 3, kP - 1}) {
      SCOPED_TRACE(std::string(setup.name) + " thrower vrank " +
                   std::to_string(k));
      std::vector<int> faulted(kP, 0), completed(kP, 0);
      const std::string what =
          run_expecting_failure(setup, kP, [&](Proc& proc) {
            const Topology topo(proc.machine(), Distr::kDefault);
            const int vr = topo.vrank_of(proc.id());
            if (vr == k) throw skil::support::AppError("member gave up");
            std::vector<double> v = payload(vr == 0 ? 500 : 0);
            try {
              broadcast(proc, topo, topo.hw_of(0), v, 500 * sizeof(double));
            } catch (const skil::support::RuntimeFault&) {
              faulted[static_cast<std::size_t>(vr)] = 1;
              throw;
            }
            if (v == payload(500)) completed[static_cast<std::size_t>(vr)] = 1;
          });
      EXPECT_FALSE(what.empty());
      for (int r = 0; r < kP; ++r) {
        if (r == k) continue;
        const int f = faulted[static_cast<std::size_t>(r)];
        const int c = completed[static_cast<std::size_t>(r)];
        if (r > k) {
          EXPECT_EQ(f, 1) << "vrank " << r;
        }
        if (r == 0) {
          EXPECT_EQ(c, 1) << "root";
        }
        EXPECT_EQ(f + c, 1) << "vrank " << r;
      }
    }
  }
}

}  // namespace
