#include "parix/prof.h"

#include <cstdlib>

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

}  // namespace

ProfMode parse_prof_mode(std::string_view name) {
  return support::parse_knob<ProfMode>("SKIL_PROF", "profiler mode", name,
                                       kProfModeNames);
}

std::string_view prof_mode_name(ProfMode mode) {
  return kProfModeNames[static_cast<std::size_t>(mode)];
}

ProfMode default_prof_mode() { return default_mode_slot(); }

void set_default_prof_mode(ProfMode mode) { default_mode_slot() = mode; }

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
