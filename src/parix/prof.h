// Host scheduler counters for the pooled multi-carrier engine
// (SKIL_PROF=off|counters).
//
// The PR 3 trace layer made the *simulated* machine observable; this
// layer counts what the *host* engine underneath it did: how often
// each carrier thread ran, resumed, stole and parked fibers, how much
// wall time it spent inside them, and how the BufferPool arena
// behaved.  The counters are exact; there is no wall-clock sampler (a
// 1 kHz tick cannot attribute time inside a fiber, DESIGN.md section
// 14).  Two hard rules, inherited from the trace layer's off-mode
// discipline:
//
//  1. Off mode costs one untaken branch per scheduler site and
//     performs no allocation: every site is gated on the scheduler's
//     one profiling flag, which executor_run raises only for a
//     profiled run.
//
//  2. Profiling reads the host clock and host counters only.  Nothing
//     here ever feeds back into virtual time: the golden vtimes are
//     bit-identical in every mode, and the tests pin that.
//
// Every counter belongs to the run that did the work.  A carrier's
// lane (CarrierCounters) sits in the scheduler's per-carrier state next
// to its run queue, cache-line padded so two carriers never contend;
// executor_run zeroes the lanes when a profiled run starts and copies
// them out when it ends (runs serialise there).  Pool counters are
// booked on the Proc that shared the buffer and summed by spmd_run.
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

/// One carrier's scheduler counters over one profiled run.
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
/// the lane of the carrier that parked the fiber.  Every access is a
/// relaxed atomic one: an idle carrier may still probe the queues
/// while the run's owner resets or reads the lane.
struct alignas(64) CarrierCounters {
  CarrierReport counts;  ///< touched only through the members below

  void bump(std::uint64_t CarrierReport::*counter, std::uint64_t n = 1) {
    std::atomic_ref(counts.*counter).fetch_add(n, std::memory_order_relaxed);
  }
  /// Every counter, one relaxed read each.
  CarrierReport load() {
    CarrierReport report;
    for (const auto& f : CarrierReport::fields())
      report.*f.member =
          std::atomic_ref(counts.*f.member).load(std::memory_order_relaxed);
    return report;
  }
  /// Zeroes every counter, one relaxed store each.
  void reset() {
    for (const auto& f : CarrierReport::fields())
      std::atomic_ref(counts.*f.member).store(0, std::memory_order_relaxed);
  }
};

/// BufferPool arena accounting, booked on the Proc that called
/// BufferPool::share (Proc::pool_counters).
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

/// The per-run scheduler report carried on RunResult and exported as
/// the `scheduler` object of the metrics JSON.  `carriers` is 0 for
/// the threads engine (no carrier pool), but pool counters are still
/// reported there.  `pool` is the sum of the run's Proc counters.
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
