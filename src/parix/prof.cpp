#include "parix/prof.h"

#include <cstdlib>
#include <memory>
#include <mutex>

#include "support/env.h"

namespace skil::parix {

namespace {

constexpr std::string_view kProfModeNames[] = {"off", "counters"};

ProfMode initial_default_mode() {
  if (const char* env = std::getenv("SKIL_PROF"))
    return parse_prof_mode(env);
  return ProfMode::kOff;
}

ProfMode& default_mode_slot() {
  static ProfMode mode = initial_default_mode();
  return mode;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

// Old registries are parked here forever instead of being freed: a
// carrier may hold a pointer loaded before a resize, and a
// few retained KiB beat reasoning about concurrent reclamation.
// "Forever" includes process exit -- the vectors are intentionally
// leaked, never static-destructed.  A carrier charging run_ns after
// its last fiber yields races main()'s return (the run completes the
// moment the fiber finishes, not when the carrier's accounting tail
// does), and under CPU contention that tail can still be pending when
// exit() runs static destructors: freeing the counter arrays there is
// a use-after-free in the parked carrier, seen as a rare exit-time
// segfault under --prof on a loaded host.
std::vector<std::unique_ptr<ProfRegistry>>& retired_registries() {
  static auto* retired = new std::vector<std::unique_ptr<ProfRegistry>>();
  return *retired;
}

std::vector<std::unique_ptr<CarrierCounters[]>>& retired_lanes() {
  static auto* retired = new std::vector<std::unique_ptr<CarrierCounters[]>>();
  return *retired;
}

std::mutex& pool_mutex() {
  static std::mutex m;
  return m;
}

PoolCounters& pool_counters_slot() {
  static PoolCounters counters;
  return counters;
}

}  // namespace

namespace prof_detail {
std::atomic<ProfRegistry*> g_registry{nullptr};
std::atomic<int> g_active_runs{0};
}  // namespace prof_detail

ProfMode parse_prof_mode(std::string_view name) {
  return support::parse_knob<ProfMode>("SKIL_PROF", "profiler mode", name,
                                       kProfModeNames);
}

std::string_view prof_mode_name(ProfMode mode) {
  return kProfModeNames[static_cast<std::size_t>(mode)];
}

ProfMode default_prof_mode() { return default_mode_slot(); }

void set_default_prof_mode(ProfMode mode) { default_mode_slot() = mode; }

void prof_ensure_registry(int carriers) {
  if (carriers <= 0) return;
  std::scoped_lock lock(registry_mutex());
  ProfRegistry* current =
      prof_detail::g_registry.load(std::memory_order_relaxed);
  if (current != nullptr && current->n >= carriers) return;
  auto grown = std::make_unique<ProfRegistry>();
  auto lanes = std::make_unique<CarrierCounters[]>(
      static_cast<std::size_t>(carriers));
  if (current != nullptr) {
    // Carry the cumulative counts over so before/after deltas spanning
    // a resize stay exact.  Writers are quiescent here (the executor
    // only resizes between runs) and the new lanes are unpublished.
    for (int i = 0; i < current->n; ++i)
      lanes[i].counts = current->carriers[i].load();
  }
  grown->carriers = lanes.get();
  grown->n = carriers;
  retired_lanes().push_back(std::move(lanes));
  ProfRegistry* published = grown.get();
  retired_registries().push_back(std::move(grown));
  prof_detail::g_registry.store(published, std::memory_order_release);
}

void prof_activate() {
  prof_detail::g_active_runs.fetch_add(1, std::memory_order_relaxed);
}

void prof_deactivate() {
  prof_detail::g_active_runs.fetch_sub(1, std::memory_order_relaxed);
}

void prof_note_pool_acquire(bool hit, std::uint64_t bytes) {
  std::scoped_lock lock(pool_mutex());
  PoolCounters& counters = pool_counters_slot();
  ++counters.acquires;
  if (hit)
    ++counters.hits;
  else
    ++counters.misses;
  counters.bytes += bytes;
}

PoolCounters prof_pool_counters() {
  std::scoped_lock lock(pool_mutex());
  return pool_counters_slot();
}

std::vector<CarrierReport> prof_snapshot() {
  std::vector<CarrierReport> lanes;
  ProfRegistry* registry =
      prof_detail::g_registry.load(std::memory_order_acquire);
  if (registry == nullptr) return lanes;
  lanes.reserve(static_cast<std::size_t>(registry->n));
  for (int i = 0; i < registry->n; ++i)
    lanes.push_back(registry->carriers[i].load());
  return lanes;
}

// SchedulerTotals::add maps the totals table onto CarrierReport's and
// then PoolCounters' (under a `pool_` prefix) by position.
static_assert([] {
  constexpr auto t = SchedulerTotals::fields();
  constexpr auto c = CarrierReport::fields();
  constexpr auto p = PoolCounters::fields();
  bool ok = t.size() == c.size() + p.size();
  for (std::size_t i = 0; ok && i < t.size(); ++i)
    ok = i < c.size() ? t[i].name == c[i].name
                      : t[i].name.starts_with("pool_") &&
                            t[i].name.substr(5) == p[i - c.size()].name;
  return ok;
}());

void SchedulerTotals::add(const SchedulerReport& report) {
  CarrierReport lanes;
  for (const CarrierReport& lane : report.per_carrier)
    support::add(lanes, lane);
  constexpr auto table = fields();
  std::size_t i = 0;
  const auto into = [&](std::string_view, std::uint64_t v) {
    this->*table[i++].member += v;
  };
  support::for_each(lanes, into);
  support::for_each(report.pool, into);
}

}  // namespace skil::parix
