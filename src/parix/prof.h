// Host scheduler counters for the pooled multi-carrier engine
// (SKIL_PROF=off|counters).
//
// The PR 3 trace layer made the *simulated* machine observable; this
// layer counts what the *host* engine underneath it did: how often
// each carrier thread ran, resumed, stole and parked fibers, how much
// wall time it spent inside them, and how the BufferPool arena
// behaved.  The counters are exact; there is no wall-clock sampler (a
// 1 kHz tick cannot attribute time inside a fiber, DESIGN.md section
// 14).  Two hard rules, inherited
// from the trace layer's off-mode discipline:
//
//  1. Off mode costs one untaken branch per hot-path site and performs
//     no allocation.  Every site is gated on a single relaxed atomic
//     load (`prof_registry()` returning nullptr, or `prof_counting()`
//     being false).
//
//  2. Profiling reads the host clock and host counters only.  Nothing
//     here ever feeds back into virtual time: the golden vtimes are
//     bit-identical in every mode, and the tests pin that.
//
// Counters live in a per-carrier, cache-line-padded registry so two
// carriers never contend on a line.  The registry is process-global
// and append-only: when the carrier count grows, a larger array is
// published and the old one is retired into a keep-alive list instead
// of being freed, so a racing reader can never touch freed memory.
// Registries are tiny (a few KiB) and resizes are rare (explicit
// executor_set_carriers calls), so the retained memory is noise.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/fields.h"

namespace skil::parix {

enum class ProfMode {
  kOff = 0,      ///< No profiling; one untaken branch per site.
  kCounters,     ///< Per-carrier counters, aggregated on RunResult.
};

ProfMode parse_prof_mode(std::string_view name);
std::string_view prof_mode_name(ProfMode mode);
ProfMode default_prof_mode();
void set_default_prof_mode(ProfMode mode);

/// One carrier's scheduler counters: a live lane's cumulative totals
/// (CarrierCounters::counts) or its activity during one run (the
/// delta of two snapshots).
struct CarrierReport {
  std::uint64_t fibers_run = 0;       ///< dispatches (first or resumed)
  std::uint64_t fibers_resumed = 0;   ///< dispatches of a fiber that ran before
  std::uint64_t steal_attempts = 0;   ///< probes of a non-home queue
  std::uint64_t steal_successes = 0;  ///< fibers taken from a non-home queue
  std::uint64_t steal_failed_rounds = 0;  ///< full sweeps that found nothing
  std::uint64_t parks = 0;            ///< kParking -> kParked CASes
  std::uint64_t unparks = 0;          ///< kParked -> kReady CASes (wakes)
  std::uint64_t run_ns = 0;           ///< host ns inside fiber context switches

  static constexpr auto fields() {
    using F = support::Field<CarrierReport, std::uint64_t>;
    return std::array{
        F{"fibers_run", &CarrierReport::fibers_run},
        F{"fibers_resumed", &CarrierReport::fibers_resumed},
        F{"steal_attempts", &CarrierReport::steal_attempts},
        F{"steal_successes", &CarrierReport::steal_successes},
        F{"steal_failed_rounds", &CarrierReport::steal_failed_rounds},
        F{"parks", &CarrierReport::parks},
        F{"unparks", &CarrierReport::unparks},
        F{"run_ns", &CarrierReport::run_ns},
    };
  }
};

/// One carrier thread's live lane, padded to its own cache line so two
/// carriers rarely contend.  Most counters are written by the owning
/// carrier; a waker on another carrier books `parks` and `unparks` on
/// the lane of the carrier that parked the fiber.  Every write is a
/// relaxed atomic RMW, and the aggregator reads without
/// synchronization through relaxed atomic refs: every counter is
/// monotone, so a torn read across fields is harmless and a per-field
/// relaxed read is exact.
struct alignas(64) CarrierCounters {
  CarrierReport counts;  ///< touched only through bump() and read()

  void bump(std::uint64_t CarrierReport::*counter, std::uint64_t n = 1) {
    std::atomic_ref(counts.*counter).fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t read(std::uint64_t CarrierReport::*counter) {
    return std::atomic_ref(counts.*counter).load(std::memory_order_relaxed);
  }
  /// Every counter, one relaxed read each.
  CarrierReport load() {
    CarrierReport report;
    for (const auto& f : CarrierReport::fields())
      report.*f.member = read(f.member);
    return report;
  }
};

struct ProfRegistry {
  CarrierCounters* carriers = nullptr;
  int n = 0;
};

namespace prof_detail {
extern std::atomic<ProfRegistry*> g_registry;
extern std::atomic<int> g_active_runs;
}  // namespace prof_detail

/// The hot-path gate: nullptr whenever no profiled run is active, so
/// every instrumentation site is `if (prof) [[unlikely]] ...`.
inline ProfRegistry* prof_registry() {
  if (prof_detail::g_active_runs.load(std::memory_order_relaxed) == 0)
    return nullptr;
  return prof_detail::g_registry.load(std::memory_order_relaxed);
}

/// Gate for sites that have no registry pointer handy (BufferPool).
inline bool prof_counting() {
  return prof_detail::g_active_runs.load(std::memory_order_relaxed) > 0;
}

/// Grows the registry to cover at least `carriers` lanes (never
/// shrinks).  Called by the executor with its worker count before a
/// profiled run and whenever the pool is (re)spawned, so an active
/// registry always covers every live carrier index.
void prof_ensure_registry(int carriers);

/// Refcounted activation: sites count only while >= 1 run wants
/// profiling, so SKIL_PROF=off runs pay nothing even after a profiled
/// run has populated the registry.
void prof_activate();
void prof_deactivate();

/// RAII guard used by spmd_run_ref (exception-safe deactivation).
class ProfActivation {
 public:
  explicit ProfActivation(bool on) : on_(on) {
    if (on_) prof_activate();
  }
  ~ProfActivation() {
    if (on_) prof_deactivate();
  }
  ProfActivation(const ProfActivation&) = delete;
  ProfActivation& operator=(const ProfActivation&) = delete;

 private:
  bool on_;
};

/// BufferPool arena accounting (process-wide; the pool is shared by
/// all carriers and its own mutex serializes acquires).
struct PoolCounters {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes = 0;  ///< payload bytes served (hits + misses)

  static constexpr auto fields() {
    using F = support::Field<PoolCounters, std::uint64_t>;
    return std::array{
        F{"acquires", &PoolCounters::acquires},
        F{"hits", &PoolCounters::hits},
        F{"misses", &PoolCounters::misses},
        F{"bytes", &PoolCounters::bytes},
    };
  }
};

/// Out-of-line so buffer_pool.h only pays a call on profiled runs.
void prof_note_pool_acquire(bool hit, std::uint64_t bytes);
PoolCounters prof_pool_counters();

/// A point-in-time copy of every registry lane's counters, used for
/// before/after deltas.
std::vector<CarrierReport> prof_snapshot();

/// The per-run scheduler report carried on RunResult and exported as
/// the `scheduler` object of the metrics JSON.  `carriers` is 0 for
/// the threads engine (no carrier pool), but pool counters are still
/// reported there.
struct SchedulerReport {
  ProfMode mode = ProfMode::kOff;
  int carriers = 0;
  std::vector<CarrierReport> per_carrier;
  PoolCounters pool;
  std::uint64_t wall_ns = 0;      ///< host wall time of the run
};

/// Carrier- and cell-summed scheduler totals: the shape the bench
/// sweeps aggregate across cells and write as the BENCH `scheduler`
/// block.  The table is CarrierReport's followed by PoolCounters'
/// with a `pool_` prefix, entry for entry (add() relies on it);
/// settle_ns is left out of it.
struct SchedulerTotals {
  std::uint64_t fibers_run = 0;
  std::uint64_t fibers_resumed = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t steal_failed_rounds = 0;
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t settle_ns = 0;  ///< always 0; stays for the benchmark harness
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_bytes = 0;

  static constexpr auto fields() {
    using F = support::Field<SchedulerTotals, std::uint64_t>;
    return std::array{
        F{"fibers_run", &SchedulerTotals::fibers_run},
        F{"fibers_resumed", &SchedulerTotals::fibers_resumed},
        F{"steal_attempts", &SchedulerTotals::steal_attempts},
        F{"steal_successes", &SchedulerTotals::steal_successes},
        F{"steal_failed_rounds", &SchedulerTotals::steal_failed_rounds},
        F{"parks", &SchedulerTotals::parks},
        F{"unparks", &SchedulerTotals::unparks},
        F{"run_ns", &SchedulerTotals::run_ns},
        F{"pool_acquires", &SchedulerTotals::pool_acquires},
        F{"pool_hits", &SchedulerTotals::pool_hits},
        F{"pool_misses", &SchedulerTotals::pool_misses},
        F{"pool_bytes", &SchedulerTotals::pool_bytes},
    };
  }

  void add(const SchedulerReport& report);
  void add(const SchedulerTotals& other) { support::add(*this, other); }
};

}  // namespace skil::parix
