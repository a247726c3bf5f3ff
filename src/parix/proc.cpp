#include "parix/proc.h"

namespace skil::parix {

namespace {

/// Zero-virtual-width span marking which settlement path retired the
/// ledger and how many chain adds it held (full trace mode only, so
/// Perfetto timelines show the path per batch without perturbing the
/// spans-mode skeleton summaries).  Settlement already observed the
/// clock, so this records at the settled vtime and cannot trigger a
/// recursive settle.
void trace_settle(ProcTrace* trace, double vtime, const char* path,
                  std::uint64_t pending) {
  if (trace != nullptr && trace->full()) [[unlikely]] {
    trace->span_begin(vtime, path, static_cast<std::int64_t>(pending));
    trace->span_end(vtime);
  }
}

}  // namespace

void Proc::settle_pending() {
  const std::uint64_t pending = ledger_.pending_adds();
  switch (settle_mode_) {
    case SettleMode::kChain:
      ledger_.settle(vtime_, stats_);
      trace_settle(trace_, vtime_, "settle chain", pending);
      return;
    case SettleMode::kClosed:
      ledger_.settle_algebraic(vtime_, stats_);
      trace_settle(trace_, vtime_, "settle closed", pending);
      return;
  }
}

}  // namespace skil::parix
