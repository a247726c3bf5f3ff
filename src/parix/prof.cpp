#include "parix/prof.h"

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "support/env.h"

namespace skil::parix {

namespace {

constexpr std::string_view kProfModeNames[] = {"off", "counters", "sampled"};

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
// carrier or sampler may hold a pointer loaded before a resize, and a
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
    // a resize stay exact.  Writers are quiescent here: the executor
    // only resizes between runs.
    for (int i = 0; i < current->n; ++i) {
      const CarrierCounters& src = current->carriers[i];
      CarrierCounters& dst = lanes[i];
      dst.fibers_run.store(src.fibers_run.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      dst.fibers_resumed.store(
          src.fibers_resumed.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      dst.steal_attempts.store(
          src.steal_attempts.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      dst.steal_successes.store(
          src.steal_successes.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      dst.steal_failed_rounds.store(
          src.steal_failed_rounds.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      dst.parks.store(src.parks.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      dst.unparks.store(src.unparks.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      dst.run_ns.store(src.run_ns.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
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

RegistrySnapshot prof_snapshot() {
  RegistrySnapshot snapshot;
  ProfRegistry* registry =
      prof_detail::g_registry.load(std::memory_order_acquire);
  if (registry == nullptr) return snapshot;
  snapshot.lanes.reserve(static_cast<std::size_t>(registry->n));
  for (int i = 0; i < registry->n; ++i) {
    const CarrierCounters& c = registry->carriers[i];
    RegistrySnapshot::Lane lane;
    lane.fibers_run = c.fibers_run.load(std::memory_order_relaxed);
    lane.fibers_resumed = c.fibers_resumed.load(std::memory_order_relaxed);
    lane.steal_attempts = c.steal_attempts.load(std::memory_order_relaxed);
    lane.steal_successes = c.steal_successes.load(std::memory_order_relaxed);
    lane.steal_failed_rounds =
        c.steal_failed_rounds.load(std::memory_order_relaxed);
    lane.parks = c.parks.load(std::memory_order_relaxed);
    lane.unparks = c.unparks.load(std::memory_order_relaxed);
    lane.run_ns = c.run_ns.load(std::memory_order_relaxed);
    snapshot.lanes.push_back(lane);
  }
  return snapshot;
}

void SchedulerTotals::add(const SchedulerReport& report) {
  for (const CarrierReport& c : report.per_carrier) {
    fibers_run += c.fibers_run;
    fibers_resumed += c.fibers_resumed;
    steal_attempts += c.steal_attempts;
    steal_successes += c.steal_successes;
    steal_failed_rounds += c.steal_failed_rounds;
    parks += c.parks;
    unparks += c.unparks;
    run_ns += c.run_ns;
  }
  pool_acquires += report.pool.acquires;
  pool_hits += report.pool.hits;
  pool_misses += report.pool.misses;
  pool_bytes += report.pool.bytes;
}

void SchedulerTotals::add(const SchedulerTotals& other) {
  fibers_run += other.fibers_run;
  fibers_resumed += other.fibers_resumed;
  steal_attempts += other.steal_attempts;
  steal_successes += other.steal_successes;
  steal_failed_rounds += other.steal_failed_rounds;
  parks += other.parks;
  unparks += other.unparks;
  run_ns += other.run_ns;
  pool_acquires += other.pool_acquires;
  pool_hits += other.pool_hits;
  pool_misses += other.pool_misses;
  pool_bytes += other.pool_bytes;
}

namespace {
// A runaway run cannot grow the timeline without bound: at the default
// 1 ms period this is ~17 min of samples on 1 carrier.  The period is
// deliberately coarse: every tick preempts a carrier on a saturated
// host (the reference box exposes one hardware thread), and at 4 kHz
// that disruption alone cost ~14 % wall on the quick grid where 1 kHz
// stays inside W7's <=5 % budget.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
}  // namespace

// One process-wide sampler thread, lazily started on the first sampled
// run and then parked on a condition variable between runs.  Spawning a
// thread per run (and eating up to one full sleep period at stop) costs
// ~250 us per spmd_run -- on the quick benchmark grid, whose runs last
// single-digit milliseconds, that alone blows the <=5 % overhead budget.
// A parked worker makes attach/detach two mutex+cv operations.  The
// worker is never torn down: like the retired counter registries above,
// one parked thread for the life of the process beats reasoning about
// static-destruction order against a detaching sampler.
class SamplerWorker {
 public:
  static SamplerWorker& instance() {
    static SamplerWorker* w = new SamplerWorker();  // intentionally leaked
    return *w;
  }

  void attach(ProfSampler* session) {
    std::unique_lock<std::mutex> lock(mutex_);
    // Runs are serialized, but be defensive: wait out a session that is
    // still detaching.
    cv_.wait(lock, [this] { return active_ == nullptr; });
    active_ = session;
    cv_.notify_all();
  }

  void detach(ProfSampler* session) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (active_ != session) return;
    active_ = nullptr;
    cv_.notify_all();
    // The worker samples under the lock, so once we hold it with
    // active_ cleared there is no in-flight tick against this session.
  }

 private:
  SamplerWorker() {
    std::thread([this] { loop(); }).detach();
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return active_ != nullptr; });
      ProfSampler* session = active_;
      while (active_ == session) {
        cv_.wait_for(lock, session->period_);
        if (active_ != session) break;
        session->sample_once(std::chrono::steady_clock::now());
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  ProfSampler* active_ = nullptr;
};

ProfSampler::ProfSampler(std::chrono::steady_clock::time_point epoch,
                         int carriers, std::chrono::nanoseconds period)
    : epoch_(epoch),
      period_(period),
      timeline_(std::make_shared<ProfTimeline>()) {
  timeline_->carriers = carriers;
  timeline_->period_ns = static_cast<std::uint64_t>(period.count());
  // First tick synchronously, before the run body starts: even a run
  // shorter than one period gets one sample per carrier.
  sample_once(std::chrono::steady_clock::now());
  SamplerWorker::instance().attach(this);
}

ProfSampler::~ProfSampler() { SamplerWorker::instance().detach(this); }

std::shared_ptr<const ProfTimeline> ProfSampler::stop() {
  SamplerWorker::instance().detach(this);
  if (!stopped_) {
    stopped_ = true;
    // One closing tick so every lane's last state is recorded at the
    // run's end rather than up to one period earlier.
    sample_once(std::chrono::steady_clock::now());
  }
  return timeline_;
}

void ProfSampler::sample_once(std::chrono::steady_clock::time_point now) {
  ProfRegistry* registry =
      prof_detail::g_registry.load(std::memory_order_acquire);
  if (registry == nullptr) return;
  if (timeline_->samples.size() >= kMaxSamples) return;
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
          .count());
  const int lanes = std::min(timeline_->carriers, registry->n);
  for (int i = 0; i < lanes; ++i) {
    const CarrierCounters& c = registry->carriers[i];
    ProfSample sample;
    sample.wall_ns = wall_ns;
    sample.carrier = i;
    sample.running_proc = c.running_proc.load(std::memory_order_relaxed);
    sample.queue_depth = c.queue_depth.load(std::memory_order_relaxed);
    sample.fibers_run = c.fibers_run.load(std::memory_order_relaxed);
    sample.steal_successes = c.steal_successes.load(std::memory_order_relaxed);
    timeline_->samples.push_back(sample);
  }
}

}  // namespace skil::parix
