#include "parix/executor.h"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "parix/machine.h"
#include "parix/mailbox.h"
#include "parix/proc.h"
#include "parix/prof.h"
#include "support/env.h"
#include "support/error.h"

// Fiber switches are invisible to the sanitizers unless announced:
// ASan tracks which stack region is live (and its fake-stack state),
// TSan models each fiber as its own logical thread.  With the
// annotations below the pooled engine runs cleanly under both, which
// is what lets CI exercise the multi-carrier scheduler sanitized
// instead of falling back to the threads engine.
#if defined(__SANITIZE_ADDRESS__) && __has_include(<sanitizer/common_interface_defs.h>)
#define SKIL_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) && __has_include(<sanitizer/tsan_interface.h>)
#define SKIL_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif
#if SKIL_ASAN_FIBERS
#include <pthread.h>
#endif

namespace skil::parix {
namespace {

// Fiber stacks are touched lazily (plain new[] without value-init),
// so a 64-processor run commits only the pages it actually uses.
constexpr std::size_t kFiberStackBytes = std::size_t{1} << 20;

#if defined(__x86_64__)
// The fiber switch, hand-written for the x86-64 SysV ABI.  glibc's
// swapcontext also saves and restores the signal mask, one
// rt_sigprocmask syscall per switch; fibers never change their mask,
// so this switch keeps to what the ABI makes callee-saved: rbx, rbp,
// r12-r15, the MXCSR control bits and the x87 control word.  It pushes
// them on the running stack, stores the stack pointer to *save_sp,
// loads next_sp and pops the same frame off the other stack.  It keeps
// no CET shadow stack, so it cannot run with user shadow stacks on
// (glibc leaves them off unless a tunable asks for them).

/// A suspended execution context: its saved stack pointer.
struct Context {
  void* sp = nullptr;
};

extern "C" void skil_parix_fiber_switch(void** save_sp, void* next_sp);
asm(R"(
  .pushsection .text
  .globl skil_parix_fiber_switch
  .hidden skil_parix_fiber_switch
  .type skil_parix_fiber_switch, @function
  .p2align 4
skil_parix_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size skil_parix_fiber_switch, .-skil_parix_fiber_switch
  .popsection
)");

/// Prepares `ctx` to start `entry` on the given stack at its first
/// switch: the frame skil_parix_fiber_switch pops, with the creating
/// thread's floating-point control state, zeroed callee-saved
/// registers and `entry` as the return address.  `entry` must never
/// return; the null slot above it ends backtraces.  Unchecked by ASan:
/// a recycled stack still carries the shadow of its last fiber's
/// frames, which never returned; the frames run on it set their own.
__attribute__((no_sanitize_address)) void context_init(Context& ctx,
                                                       char* stack,
                                                       std::size_t size,
                                                       void (*entry)()) {
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack + size) & ~std::uintptr_t{15};
  // [0] x87 control word, [1] MXCSR, [2..7] r15 r14 r13 r12 rbx rbp,
  // [8] entry, [9] null return address.  After the final ret the stack
  // pointer is top - 8, the alignment the ABI gives a called function.
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 10;
  std::uint16_t fpu_cw = 0;
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  frame[0] = fpu_cw;
  frame[1] = __builtin_ia32_stmxcsr();
  for (int i = 2; i < 8; ++i) frame[i] = 0;
  frame[8] = reinterpret_cast<std::uint64_t>(entry);
  frame[9] = 0;
  ctx.sp = frame;
}

/// Saves the running context into `from` and resumes `to`.
inline void context_switch(Context& from, const Context& to) {
  skil_parix_fiber_switch(&from.sp, to.sp);
}
#else
// Other architectures keep the portable ucontext switch.

/// A suspended execution context.
struct Context {
  ucontext_t uc;
};

/// Prepares `ctx` to start `entry` on the given stack at its first
/// switch.
void context_init(Context& ctx, char* stack, std::size_t size,
                  void (*entry)()) {
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = size;
  ctx.uc.uc_link = nullptr;
  makecontext(&ctx.uc, entry, 0);
}

/// Saves the running context into `from` and resumes `to`.
inline void context_switch(Context& from, const Context& to) {
  swapcontext(&from.uc, &to.uc);
}
#endif

// Fiber states, each transition one atomic store or CAS with no lock.
// kParking: park_current ran but the carrier is still on the fiber's
// stack, so it cannot be enqueued yet; kNotified: a wake() came while
// the fiber was running or parking.
//
//   dispatch          kReady -> kRunning            (store, carrier)
//   park_current      kRunning -> kParking          (CAS, fiber)
//                     kNotified -> kRunning         (CAS lost: resume)
//   post-switch step  kParking -> kParked           (CAS, carrier)
//                     kNotified -> kReady, enqueue  (CAS lost)
//                     kFinished: recycle, leave census
//   wake              kParked -> kReady, enqueue    (CAS, waker)
//                     kRunning|kParking -> kNotified
//
// So the missed-wakeup race (the waiter is woken before its fiber gets
// off its stack) is settled by whichever CAS wins.
enum class FiberState : std::uint8_t {
  kReady, kRunning, kNotified, kParking, kParked, kFinished
};

struct RunState;

struct Fiber {
  Context context;
  std::unique_ptr<char[]> stack;
  std::atomic<FiberState> state{FiberState::kReady};
  /// Carrier whose run queue this fiber calls home (affinity; idle
  /// carriers steal from the others).  Written by the dispatching
  /// carrier, read by wakers on other carriers.
  std::atomic<int> home{0};
  /// Whether this fiber has been dispatched before in the current run
  /// (distinguishes first dispatch from a resume in the profiler's
  /// fibers_run / fibers_resumed counters).
  bool ran_before = false;
  RunState* run = nullptr;
  Proc* proc = nullptr;
  /// ASan fake-stack save slot for switches *off* this fiber (unused
  /// outside ASan builds).
  void* asan_fake_stack = nullptr;
  /// TSan logical-thread context for this fiber's current run (unused
  /// outside TSan builds).
  void* tsan_fiber = nullptr;
};

struct RunState {
  Machine* machine = nullptr;
  const detail::BodyRef* body = nullptr;

  std::mutex failure_mutex;
  std::exception_ptr first_failure;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  /// Set on quiescence, at most once per run (guarded by done_mutex):
  /// asks the thread waiting in Scheduler::run to poison the machine.
  bool deadlock_detected = false;
};

/// One carrier's run queue.  `size` mirrors the deque's length for
/// lock-free emptiness probes (stealing, the sleep check); it is exact
/// under `mutex` and a hint everywhere else.
struct alignas(64) RunQueue {
  std::mutex mutex;
  std::deque<Fiber*> fibers;
  std::atomic<int> size{0};

  void push(Fiber* fiber) {
    const std::scoped_lock lock(mutex);
    fibers.push_back(fiber);
    size.store(static_cast<int>(fibers.size()), std::memory_order_relaxed);
  }
  Fiber* pop() {  // oldest fiber or null
    const std::scoped_lock lock(mutex);
    if (fibers.empty()) return nullptr;
    Fiber* fiber = fibers.front();
    fibers.pop_front();
    size.store(static_cast<int>(fibers.size()), std::memory_order_relaxed);
    return fiber;
  }
};

/// One admitted carrier's scheduler state: its run queue and its
/// SKIL_PROF counter lane (prof.h), which counts only while a profiled
/// run has the pool.
struct CarrierSlot {
  RunQueue queue;
  CarrierCounters lane;
};

thread_local Fiber* tl_fiber = nullptr;
thread_local Context* tl_worker_context = nullptr;
#if SKIL_ASAN_FIBERS
thread_local const void* tl_worker_stack_bottom = nullptr;
thread_local std::size_t tl_worker_stack_size = 0;
#endif
#if SKIL_TSAN_FIBERS
thread_local void* tl_worker_tsan_fiber = nullptr;
#endif

// Work stealing migrates fibers between carrier threads, but the
// compiler compiles every function as if its thread could never change
// underneath it: with local-exec TLS it materialises the thread
// pointer once and may reuse the derived addresses across a context
// switch that in fact moved the fiber to another carrier (GCC does
// exactly this when it inlines finish_current into fiber_trampoline,
// leaving the finished fiber reading the *original* carrier's slot).
// Every TLS slot fiber-side code may read therefore goes through these
// opaque accessors: noinline forces a fresh thread-pointer load per
// call, and the volatile asm keeps IPA from proving the functions pure
// and CSE-ing the calls.  Carrier-side code (worker_main) accesses its
// own slots directly -- a worker thread never migrates.
__attribute__((noinline)) Fiber*& current_fiber_slot() {
  asm volatile("");
  return tl_fiber;
}
__attribute__((noinline)) Context* current_worker_context() {
  asm volatile("");
  return tl_worker_context;
}
#if SKIL_ASAN_FIBERS
__attribute__((noinline)) const void* current_worker_stack_bottom() {
  asm volatile("");
  return tl_worker_stack_bottom;
}
__attribute__((noinline)) std::size_t current_worker_stack_size() {
  asm volatile("");
  return tl_worker_stack_size;
}
#endif
#if SKIL_TSAN_FIBERS
__attribute__((noinline)) void* current_worker_tsan_fiber() {
  asm volatile("");
  return tl_worker_tsan_fiber;
}
#endif

/// Announces an upcoming switch from the current context onto
/// `fiber`'s stack.
inline void sanitizer_switch_to_fiber(Fiber* fiber, void** fake_stack_save) {
#if SKIL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, fiber->stack.get(),
                                 kFiberStackBytes);
#else
  (void)fake_stack_save;
#endif
#if SKIL_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber->tsan_fiber, 0);
#else
  (void)fiber;
#endif
}

/// Announces an upcoming switch from the current fiber back onto its
/// carrier's thread stack.  `fake_stack_save` is null on the final
/// switch of a finished fiber (ASan then releases its fake stack).
inline void sanitizer_switch_to_worker(void** fake_stack_save) {
#if SKIL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, current_worker_stack_bottom(),
                                 current_worker_stack_size());
#else
  (void)fake_stack_save;
#endif
#if SKIL_TSAN_FIBERS
  __tsan_switch_to_fiber(current_worker_tsan_fiber(), 0);
#endif
}

/// Completes the switch after landing on a new stack; `fake_stack` is
/// the save slot written when this context last switched away.
inline void sanitizer_finish_switch(void* fake_stack) {
#if SKIL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#else
  (void)fake_stack;
#endif
}

class Scheduler {
 public:
  static Scheduler& instance() {
    static Scheduler scheduler;
    return scheduler;
  }

  std::exception_ptr run(Machine& machine,
                         const std::vector<std::unique_ptr<Proc>>& procs,
                         const detail::BodyRef& body,
                         std::vector<CarrierReport>* lanes);

  /// Parks the calling fiber until wake(); returns immediately when a
  /// wake already raced ahead.
  void park_current();

  /// Makes `fiber` runnable again (called from Mailbox::put/poison via
  /// the fiber's registered waiter, possibly on another carrier).
  void wake(Fiber* fiber);

  /// Marks the calling fiber finished and swaps back to its carrier
  /// for good; the carrier recycles it and signals run completion
  /// when it is the last one.
  [[noreturn]] void finish_current();

  /// Number of carrier threads the next pooled run will use.
  int carriers();

  /// Overrides the carrier count (0 = resolve SKIL_CARRIERS /
  /// host_cores again).  Stops the current pool; the next run
  /// respawns it at the new width.  Must not be called from inside a
  /// run.
  void set_carriers(int n);

 private:
  Scheduler() = default;
  ~Scheduler();

  void worker_main(int index);
  void dispatch(int index, Fiber* fiber, Context& worker_context);
  void spawn_workers_locked();
  void stop_workers(std::unique_lock<std::mutex>& lock);
  void enqueue(Fiber* fiber);
  Fiber* pop_ready(int index);
  bool sleep_until_work();
  /// Reports a run's end or deadlock to its waiter when a census
  /// decrement leaves `left`.
  static void after_census_drop(RunState* run, std::uint64_t left);
  int resolve_carriers_locked();

  /// Deadlock census, one word.  The high half counts live fibers (not
  /// finished), the low half the fibers that are ready, running or not
  /// yet parked.  Run setup stores both; a park takes 1, a wake adds 1
  /// back, a finish takes one of each.  A drop of the low half to 0
  /// while the high half is not is a deadlock, and it cannot fire
  /// early: every waker is counted (a running fiber, or the run's
  /// poisoner) until its wake() has added its target back, so at 0 no
  /// wake is in flight, and every live fiber is parked for good.
  std::atomic<std::uint64_t> census_{0};
  static constexpr std::uint64_t kLive = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kActiveMask = kLive - 1;

  /// One slot per admitted carrier (fiber->home indexes it); idle
  /// carriers steal from the others' queues.  The lanes live exactly
  /// as long as the pool: stop_workers and ~Scheduler join every
  /// carrier before the slots go, so no carrier write outlives them,
  /// at process exit included.
  std::unique_ptr<CarrierSlot[]> slots_;
  int nslots_ = 0;
  /// Raised by run() for a profiled run: the one gate of every counter
  /// site.
  std::atomic<bool> profiling_{false};
  /// Carriers asleep in work_cv_; enqueue() takes mutex_ to signal
  /// only when this is non-zero.
  std::atomic<int> sleepers_{0};

  // mutex_ guards what follows: carrier sleep and wake-up, pool spawn
  // and stop, and fiber recycling.  The dispatch, park and wake paths
  // never take it.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<std::unique_ptr<Fiber>> all_fibers_;  // ownership
  std::vector<Fiber*> free_fibers_;                 // recycled, off-stack
  std::vector<std::thread> workers_;
  /// Carrier count of the running pool (0 = no pool).  Admission cap:
  /// only min(carriers, host_cores) carriers are spawned, as
  /// oversubscribed cores turn scheduler wakeups into kernel context
  /// switches; the extra lanes of a larger SKIL_CARRIERS stay idle.
  int carriers_ = 0;
  int desired_carriers_ = 0;  // 0 = auto (SKIL_CARRIERS / host cores)
  bool shutdown_ = false;

  /// One spmd run owns the pool at a time; concurrent host callers
  /// queue here.
  std::mutex run_serial_;
};

void fiber_trampoline() {
  sanitizer_finish_switch(nullptr);
  Fiber* fiber = current_fiber_slot();
  RunState* run = fiber->run;
  try {
    (*run->body)(*fiber->proc);
  } catch (...) {
    {
      const std::scoped_lock lock(run->failure_mutex);
      if (!run->first_failure) run->first_failure = std::current_exception();
    }
    run->machine->poison_all("processor " + std::to_string(fiber->proc->id()) +
                             " terminated with an error");
  }
  Scheduler::instance().finish_current();
}

int Scheduler::resolve_carriers_locked() {
  if (desired_carriers_ > 0) return desired_carriers_;
  if (const char* env = std::getenv("SKIL_CARRIERS")) {
    const std::string_view value(env);
    if (value != "auto") {
      char* end = nullptr;
      const long n = std::strtol(env, &end, 10);
      SKIL_REQUIRE(end != env && *end == '\0' && n >= 1 && n <= 256,
                   "SKIL_CARRIERS: expected 'auto' or an integer in [1, 256], "
                   "got '" + std::string(env) + "'");
      return static_cast<int>(n);
    }
  }
  return std::clamp(support::host_cores(), 1, 16);
}

int Scheduler::carriers() {
  const std::scoped_lock lock(mutex_);
  return carriers_ > 0 ? carriers_ : resolve_carriers_locked();
}

void Scheduler::spawn_workers_locked() {
  const int n = resolve_carriers_locked();
  const int admitted = std::min(n, support::host_cores());
  carriers_ = n;
  nslots_ = admitted;
  slots_ = std::make_unique<CarrierSlot[]>(static_cast<std::size_t>(admitted));
  workers_.reserve(static_cast<std::size_t>(admitted));
  for (int i = 0; i < admitted; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void Scheduler::stop_workers(std::unique_lock<std::mutex>& lock) {
  if (workers_.empty()) return;
  shutdown_ = true;
  work_cv_.notify_all();
  lock.unlock();
  for (auto& worker : workers_) worker.join();
  lock.lock();
  workers_.clear();
  slots_.reset();
  nslots_ = 0;
  carriers_ = 0;
  shutdown_ = false;
}

void Scheduler::set_carriers(int n) {
  SKIL_REQUIRE(current_fiber_slot() == nullptr,
               "executor: set_carriers from inside a pooled run");
  SKIL_REQUIRE(n >= 0 && n <= 256, "executor: carrier count out of range");
  const std::scoped_lock serial(run_serial_);
  std::unique_lock lock(mutex_);
  desired_carriers_ = n;
  stop_workers(lock);
}

void Scheduler::enqueue(Fiber* fiber) {
  slots_[fiber->home.load(std::memory_order_relaxed)].queue.push(fiber);
  // Pairs with the fence in sleep_until_work: either this load sees
  // the sleeper, or the sleeper's re-check sees the size above.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    const std::scoped_lock lock(mutex_);
    work_cv_.notify_one();
  }
}

Fiber* Scheduler::pop_ready(int index) {
  const bool counted = profiling_.load(std::memory_order_relaxed);
  CarrierCounters& lane = slots_[index].lane;
  // Own queue first (affinity), then steal round-robin from the rest.
  for (int i = 0; i < nslots_; ++i) {
    RunQueue& queue = slots_[(index + i) % nslots_].queue;
    if (counted && i > 0) [[unlikely]]
      lane.bump(&CarrierReport::steal_attempts);
    Fiber* const fiber =
        queue.size.load(std::memory_order_relaxed) > 0 ? queue.pop() : nullptr;
    if (fiber == nullptr) continue;
    if (counted && i > 0) [[unlikely]]
      lane.bump(&CarrierReport::steal_successes);
    return fiber;
  }
  if (counted) [[unlikely]]
    lane.bump(&CarrierReport::steal_failed_rounds);
  return nullptr;
}

bool Scheduler::sleep_until_work() {
  std::unique_lock lock(mutex_);
  sleepers_.fetch_add(1, std::memory_order_relaxed);
  // Pairs with the fence in enqueue (see there).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  work_cv_.wait(lock, [&] {
    for (int i = 0; i < nslots_; ++i)
      if (slots_[i].queue.size.load(std::memory_order_relaxed) > 0)
        return true;
    return shutdown_;
  });
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  return !shutdown_;
}

void Scheduler::after_census_drop(RunState* run, std::uint64_t left) {
  if ((left & kActiveMask) != 0) return;
  // Notify under done_mutex: once the waiter sees a flag it may finish
  // the run and destroy `run` (it lives on its stack), so the cv must
  // not be touched after the unlock.
  const std::scoped_lock done_lock(run->done_mutex);
  if (left == 0) {
    run->done = true;
  } else {
    // Live fibers remain, all parked with no wake in flight (census_).
    // A finish completes a deadlock just like a park can.  The waiter
    // poisons, not us: it owns the machine, which a carrier walking the
    // mailboxes could see destroyed once the woken fibers finish.
    run->deadlock_detected = true;
  }
  run->done_cv.notify_one();
}

void Scheduler::worker_main(int index) {
  Context worker_context;
  tl_worker_context = &worker_context;
#if SKIL_ASAN_FIBERS
  {
    pthread_attr_t attr;
    void* bottom = nullptr;
    std::size_t size = 0;
    pthread_getattr_np(pthread_self(), &attr);
    pthread_attr_getstack(&attr, &bottom, &size);
    pthread_attr_destroy(&attr);
    tl_worker_stack_bottom = bottom;
    tl_worker_stack_size = size;
  }
#endif
#if SKIL_TSAN_FIBERS
  tl_worker_tsan_fiber = __tsan_get_current_fiber();
#endif
  for (;;) {
    if (Fiber* fiber = pop_ready(index)) {
      dispatch(index, fiber, worker_context);
    } else if (!sleep_until_work()) {
      return;
    }
  }
}

void Scheduler::dispatch(int index, Fiber* fiber, Context& worker_context) {
  fiber->state.store(FiberState::kRunning, std::memory_order_relaxed);
  fiber->home.store(index, std::memory_order_relaxed);
  const bool resumed = fiber->ran_before;
  fiber->ran_before = true;
  RunState* const run = fiber->run;

  const bool counted = profiling_.load(std::memory_order_relaxed);
  CarrierCounters& lane = slots_[index].lane;
  std::chrono::steady_clock::time_point prof_t0;
  if (counted) [[unlikely]] {
    lane.bump(&CarrierReport::fibers_run);
    if (resumed) lane.bump(&CarrierReport::fibers_resumed);
    prof_t0 = std::chrono::steady_clock::now();
  }

  tl_fiber = fiber;
  void* fake_stack = nullptr;
  sanitizer_switch_to_fiber(fiber, &fake_stack);
  context_switch(worker_context, fiber->context);
  sanitizer_finish_switch(fake_stack);
  tl_fiber = nullptr;

  if (counted) [[unlikely]]
    lane.bump(
        &CarrierReport::run_ns,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - prof_t0)
                .count()));

  FiberState state = FiberState::kParking;
  if (fiber->state.compare_exchange_strong(state, FiberState::kParked,
                                           std::memory_order_acq_rel)) {
    // From here a waker may already be running the fiber elsewhere.
    after_census_drop(run, census_.fetch_sub(1, std::memory_order_acq_rel) - 1);
  } else if (state == FiberState::kNotified) {
    // A wake() arrived while the fiber was mid-park; it could not
    // enqueue (we were still on the fiber's stack), so we do.
    fiber->state.store(FiberState::kReady, std::memory_order_relaxed);
    enqueue(fiber);
  } else {
    SKIL_ASSERT(state == FiberState::kFinished,
                "executor: fiber yielded in impossible state");
    // Safe to recycle: the fiber has left its stack for good.  Only
    // then does it leave the census, so a finished run has every fiber
    // back on the free list before its waiter returns.
    {
      const std::scoped_lock lock(mutex_);
      free_fibers_.push_back(fiber);
    }
    after_census_drop(
        run, census_.fetch_sub(kLive + 1, std::memory_order_acq_rel) -
                 (kLive + 1));
  }
}

void Scheduler::park_current() {
  Fiber* fiber = current_fiber_slot();
  SKIL_ASSERT(fiber != nullptr, "executor: park outside a fiber");
  FiberState state = FiberState::kRunning;
  if (!fiber->state.compare_exchange_strong(state, FiberState::kParking,
                                            std::memory_order_acq_rel)) {
    // The wake already came (kNotified): stay on the carrier.
    fiber->state.store(FiberState::kRunning, std::memory_order_relaxed);
    return;
  }
  sanitizer_switch_to_worker(&fiber->asan_fake_stack);
  context_switch(fiber->context, *current_worker_context());
  sanitizer_finish_switch(fiber->asan_fake_stack);
}

void Scheduler::wake(Fiber* fiber) {
  FiberState state = fiber->state.load(std::memory_order_acquire);
  for (;;) {
    if (state == FiberState::kParked) {
      if (fiber->state.compare_exchange_weak(state, FiberState::kReady,
                                             std::memory_order_acq_rel))
        break;
    } else {
      SKIL_ASSERT(state == FiberState::kRunning ||
                      state == FiberState::kParking,
                  "executor: wake of a fiber that waits for nothing");
      // Running or still on its stack: its own CAS or its carrier's
      // fails on kNotified and keeps it runnable.
      if (fiber->state.compare_exchange_weak(state, FiberState::kNotified,
                                             std::memory_order_acq_rel))
        return;
    }
  }
  census_.fetch_add(1, std::memory_order_acq_rel);
  const int home = fiber->home.load(std::memory_order_relaxed);
  // The park is booked with its unpark, on the parking carrier's lane:
  // each park of a run ends in one unpark before the run finishes, so
  // a run's count stays exact even if that carrier stalls after its CAS.
  if (profiling_.load(std::memory_order_relaxed)) [[unlikely]] {
    CarrierCounters& lane = slots_[home].lane;
    lane.bump(&CarrierReport::parks);
    lane.bump(&CarrierReport::unparks);
  }
  enqueue(fiber);
}

void Scheduler::finish_current() {
  Fiber* fiber = current_fiber_slot();
  fiber->state.store(FiberState::kFinished, std::memory_order_relaxed);
  // The carrier books the finish once it is off this stack for good,
  // so ASan releases the fake stack (null save slot).
  sanitizer_switch_to_worker(nullptr);
  context_switch(fiber->context, *current_worker_context());
  SKIL_ASSERT(false, "executor: finished fiber resumed");
  std::abort();
}

std::exception_ptr Scheduler::run(
    Machine& machine, const std::vector<std::unique_ptr<Proc>>& procs,
    const detail::BodyRef& body, std::vector<CarrierReport>* lanes) {
  const std::scoped_lock serial(run_serial_);
  RunState run;
  run.machine = &machine;
  run.body = &body;

  std::vector<Fiber*> fibers;
  {
    const std::scoped_lock lock(mutex_);
    if (workers_.empty()) spawn_workers_locked();
    for (const auto& proc : procs) {
      Fiber* fiber;
      if (!free_fibers_.empty()) {
        fiber = free_fibers_.back();
        free_fibers_.pop_back();
      } else {
        all_fibers_.push_back(std::make_unique<Fiber>());
        fiber = all_fibers_.back().get();
        fiber->stack.reset(new char[kFiberStackBytes]);
      }
#if SKIL_TSAN_FIBERS
      // A fresh TSan context per run: a fiber never returns from its
      // trampoline, and a context reused across runs grew without
      // bound (hundreds of MB over a few thousand runs).
      if (fiber->tsan_fiber != nullptr) __tsan_destroy_fiber(fiber->tsan_fiber);
      fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
      fiber->run = &run;
      fiber->proc = proc.get();
      fiber->state.store(FiberState::kReady, std::memory_order_relaxed);
      fiber->ran_before = false;
      fiber->home.store(proc->id() % nslots_, std::memory_order_relaxed);
      fiber->asan_fake_stack = nullptr;
      context_init(fiber->context, fiber->stack.get(), kFiberStackBytes,
                   fiber_trampoline);
      fibers.push_back(fiber);
    }
  }
  if (lanes != nullptr) {
    // The pool is ours until we return (run_serial_), so its lanes
    // count this run alone.
    for (int i = 0; i < nslots_; ++i) slots_[i].lane.reset();
    profiling_.store(true, std::memory_order_relaxed);
  }
  const auto n = static_cast<std::uint64_t>(fibers.size());
  census_.store(n * kLive + n, std::memory_order_relaxed);
  for (Fiber* fiber : fibers) enqueue(fiber);

  {
    std::unique_lock done_lock(run.done_mutex);
    run.done_cv.wait(done_lock,
                     [&] { return run.done || run.deadlock_detected; });
    if (!run.done) {
      // Every live fiber is parked in recv.  Poison from here, where
      // the machine is owned, counted in the census like any waker: it
      // cannot drop to 0 again before every woken fiber is counted,
      // and a poisoned mailbox parks nobody, so the deadlock is
      // reported once.  Then wait for the woken fibers to finish.
      done_lock.unlock();
      census_.fetch_add(1, std::memory_order_acq_rel);
      machine.poison_all("deadlock: every virtual processor is blocked in recv");
      const bool finished =
          census_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      done_lock.lock();
      run.done_cv.wait(done_lock, [&] { return finished || run.done; });
    }
  }
  if (lanes != nullptr) {
    profiling_.store(false, std::memory_order_relaxed);
    // One report per configured carrier; the lanes past the admitted
    // carriers (SKIL_CARRIERS above the host's cores) stay zero.
    lanes->assign(static_cast<std::size_t>(carriers_), CarrierReport{});
    for (int i = 0; i < nslots_; ++i) (*lanes)[i] = slots_[i].lane.load();
  }
  const std::scoped_lock lock(run.failure_mutex);
  return run.first_failure;
}

Scheduler::~Scheduler() {
  {
    const std::scoped_lock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

/// The pooled engine's mailbox waiter: wakes its fiber on notify.
struct FiberWaiter final : Mailbox::Waiter {
  Fiber* fiber = nullptr;
  void notify() override { Scheduler::instance().wake(fiber); }
};

}  // namespace

bool executor_in_fiber() { return current_fiber_slot() != nullptr; }

int executor_carriers() { return Scheduler::instance().carriers(); }

void executor_set_carriers(int n) { Scheduler::instance().set_carriers(n); }

std::exception_ptr executor_run(Machine& machine,
                                const std::vector<std::unique_ptr<Proc>>& procs,
                                const detail::BodyRef& body,
                                std::vector<CarrierReport>* lanes) {
  return Scheduler::instance().run(machine, procs, body, lanes);
}

Message executor_fiber_get(Mailbox& box, int src, long tag) {
  FiberWaiter waiter;
  waiter.fiber = current_fiber_slot();
  SKIL_ASSERT(waiter.fiber != nullptr,
              "executor: fiber receive outside the pooled engine");
  for (;;) {
    // take_or_wait either hands over the message or registers the
    // waiter; the matching put() deregisters it and wakes the fiber.
    if (auto msg = box.take_or_wait(src, tag, waiter))
      return std::move(*msg);
    Scheduler::instance().park_current();
  }
}

}  // namespace skil::parix
