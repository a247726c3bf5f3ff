// Reusable buffer pool for zero-copy message payloads.
//
// share() wraps a vector in an immutable shared buffer suitable for
// Proc::send_buffer: the sender and any in-flight messages reference
// the same storage, so posting a rotation no longer copies a whole
// block per round.  When the last reference drops, the vector node
// returns to the pool's free list instead of the heap, so
// steady-state rotation loops stop allocating per message.  The free
// list is mutex-guarded because that last release happens on another
// processor's thread; the deleter shares ownership of the pool state,
// so buffers may safely outlive the pool (e.g. messages still queued
// in a mailbox after an exception).
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "parix/prof.h"

namespace skil::parix {

template <class T>
class BufferPool {
 public:
  using Buffer = std::vector<T>;

  /// Wraps `data` in a shared immutable buffer whose node recycles
  /// through this pool, booking the acquire into `counts` (the calling
  /// processor's Proc::pool_counters).
  std::shared_ptr<const Buffer> share(Buffer&& data, PoolCounters& counts) {
    std::unique_ptr<Buffer> node;
    {
      const std::scoped_lock lock(state_->mutex);
      if (!state_->free_nodes.empty()) {
        node = std::move(state_->free_nodes.back());
        state_->free_nodes.pop_back();
      }
    }
    ++counts.acquires;
    counts.bytes += data.size() * sizeof(T);
    if (node) {
      ++counts.hits;
      *node = std::move(data);
    } else {
      ++counts.misses;
      node = std::make_unique<Buffer>(std::move(data));
    }
    const std::shared_ptr<State> state = state_;
    Buffer* raw = node.release();
    return std::shared_ptr<const Buffer>(raw, [state](const Buffer* buf) {
      std::unique_ptr<Buffer> owned(const_cast<Buffer*>(buf));
      const std::scoped_lock lock(state->mutex);
      state->free_nodes.push_back(std::move(owned));
    });
  }

 private:
  struct State {
    std::mutex mutex;
    std::vector<std::unique_ptr<Buffer>> free_nodes;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// The process-wide pool for element type T, shared by every skeleton
/// invocation in the process.  A sweep runs hundreds of cells; a
/// per-invocation pool drains back to the heap when its skeleton
/// returns, so every cell re-pays the allocation warm-up.  This arena
/// keeps the recycled nodes alive across cells (and across engines --
/// the free list is mutex-guarded, so pooled carriers share it
/// safely).  Buffers retain shared ownership of the pool state, so
/// even process teardown with in-flight messages stays safe.
template <class T>
BufferPool<T>& process_buffer_pool() {
  static BufferPool<T> pool;
  return pool;
}

/// Extracts the vector from a shared buffer by copying.  Like
/// take_payload, this must not move even when use_count() reads 1:
/// that relaxed observation of another owner's drop does not
/// synchronize with the dropping thread's final reads of the buffer,
/// so stealing the vector header would be a data race.  Callers hit
/// this once per skeleton invocation (unskew), not per round.
template <class T>
std::vector<T> take_buffer(std::shared_ptr<const std::vector<T>> buf) {
  return *buf;
}

}  // namespace skil::parix
