// The pooled SPMD execution engine.
//
// A process-wide scheduler owns a small set of persistent worker
// threads (capped at the host's hardware concurrency) and multiplexes
// the virtual processors of an spmd_run as ucontext fibers: each
// processor is a run-to-completion task that *parks* (swaps back to
// its worker) when a receive finds its mailbox bucket empty and is
// *unparked* by the exact put() that satisfies it (see
// Mailbox::Waiter).  Compared with the legacy one-OS-thread-per-
// processor engine this removes the per-run thread spawn/join and the
// kernel-level sleep/wake per message -- a p=64 run context-switches
// in user space only.
//
// Blocked-forever programs cannot rely on the mailbox receive timeout
// here (a parked fiber consumes no thread), so the scheduler detects
// quiescence -- every live fiber parked, nothing ready, nothing
// running -- and poisons the machine's mailboxes, turning a deadlock
// into the same RuntimeFault the threads engine raises on timeout.
//
// The pool runs N *carrier* threads (SKIL_CARRIERS, default the
// host's hardware concurrency) with one run queue per carrier and
// work stealing between them; a fiber is driven by one carrier at a
// time, which preserves the trace layer's lock-free per-proc buffer
// invariant.  Deferred charge ledgers settle inline, in the fiber that
// owns them (Proc::settle_pending).
//
// Virtual time is engine-independent by construction: it derives only
// from charged operation counts and (src, tag)-matched message
// timestamps, never from host scheduling.
#pragma once

#include <exception>
#include <memory>
#include <vector>

#include "parix/message.h"
#include "parix/runtime.h"

namespace skil::parix {

class Machine;
class Mailbox;

/// True when the calling code is running inside a pooled-engine fiber
/// (used to forbid nested pooled runs, which would deadlock the pool).
bool executor_in_fiber();

/// Number of carrier threads the pooled engine runs (or would run: if
/// the pool is not up yet, the count SKIL_CARRIERS / the hardware
/// would resolve to).
int executor_carriers();

/// Overrides the carrier count for subsequent pooled runs (0 restores
/// the SKIL_CARRIERS / hardware_concurrency default).  Tears down the
/// current pool -- the next run respawns it at the new width.
/// SKIL_CARRIERS=1 reproduces the PR 3 single-queue behaviour.  Must
/// not be called from inside a run.
void executor_set_carriers(int n);

/// Spawns the carrier pool if needed and sizes the SKIL_PROF counter
/// registry (prof.h) to cover every carrier.  The runtime calls this
/// before a profiled pooled run so the instrumentation sites never
/// index past the registry.
void executor_prof_prepare();

/// Runs `body` on every processor using the persistent pool; blocks
/// until all fibers finish.  Returns the first failure (or nullptr).
/// Concurrent calls from different host threads serialise.
std::exception_ptr executor_run(Machine& machine,
                                const std::vector<std::unique_ptr<Proc>>& procs,
                                const detail::BodyRef& body);

/// Fiber-parking receive: takes a matching message from `box` or
/// parks the current fiber until the matching put() (or poison) wakes
/// it.  Must be called from inside a pooled-engine fiber.
Message executor_fiber_get(Mailbox& box, int src, long tag);

}  // namespace skil::parix
