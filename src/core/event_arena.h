// SysTest — execution-scoped event arena (ROADMAP "Raw speed: reuse
// everything across executions", part (a): arena-style bulk event
// reclamation).
//
// Every Event allocated during one execution is dead by the time the next
// one starts: a recycled Runtime (Runtime::ResetForNextExecution) wipes its
// queues, a fresh one is destroyed, the trace holds only indices, and
// nothing retains event pointers across executions. That lifetime pattern
// is exactly an arena epoch: allocate by bumping a pointer, make `delete` a
// no-op, and reclaim EVERYTHING at once by rewinding the arena when the
// execution ends. This removes per-event malloc/free from the hottest path
// in the framework — Receive-heavy harnesses allocate and free an event per
// delivered message.
//
// The arena is thread-affine and ExecutionRunner arms it around every
// execution, recycled or fresh, via ScopedEventArenaArm: while armed, Event::operator new bump-allocates from
// the arena and Event::operator delete does nothing. While NOT armed, events
// come from the global operator new/delete.
//
// Two sharp edges this design must respect (both bit us in review before a
// line was written):
//  * Oversized allocations NEVER fall back to ::operator new while armed —
//    the matching delete would no-op and leak. They get a dedicated chunk
//    inside the arena instead, reclaimed by the same epoch rewind.
//  * Objects that must SURVIVE epochs (the sealed setup-event prototypes a
//    recycled Runtime re-delivers every execution) are allocated under
//    ScopedEventArenaPause, which routes them to the heap and makes their
//    eventual delete real.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace systest::detail {

/// Per-thread event allocation telemetry (obs-plane counters; see
/// obs/campaign.h names::kEventArena*). Trivially destructible so the
/// thread_local teardown order cannot bite.
struct EventAllocStats {
  std::uint64_t arena_allocations = 0;
  std::uint64_t arena_bytes_high_water = 0;  ///< max epoch footprint seen
};

/// Accessor for the calling thread's counters (mutable: the obs plane
/// snapshots and diffs them per execution).
[[nodiscard]] EventAllocStats& ThreadEventAllocStats() noexcept;

/// Chunked bump allocator for Event storage. One arena serves one
/// recycled Runtime (one per ExecutionRunner / worker thread); epochs are
/// executions. Chunks are retained across epochs, so a steady-state
/// execution allocates nothing from the OS at all.
class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Bump-allocates `size` bytes, 16-byte aligned. Oversized requests
  /// (> kChunkSize) get a dedicated chunk — never a ::operator new
  /// fallback, because deletes no-op while this arena is armed.
  [[nodiscard]] void* Allocate(std::size_t size);

  /// Rewinds the bump pointers to the start of every chunk, reclaiming
  /// every allocation of the ending epoch in O(chunks). Chunk memory is
  /// kept for the next epoch; dedicated oversize chunks are released.
  void ResetEpoch() noexcept;

  [[nodiscard]] std::size_t EpochBytes() const noexcept {
    return epoch_bytes_;
  }

 private:
  static constexpr std::size_t kChunkSize = 64 * 1024;
  static constexpr std::size_t kAlign = 16;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::vector<Chunk> chunks_;
  std::vector<Chunk> oversize_;   ///< dedicated chunks, freed each epoch
  std::size_t current_ = 0;       ///< index of the chunk being bumped
  std::size_t offset_ = 0;        ///< bump offset within chunks_[current_]
  std::size_t epoch_bytes_ = 0;   ///< bytes handed out this epoch
};

/// The arena (if any) armed on the calling thread. Event::operator new
/// checks this first; Event::operator delete no-ops while it is non-null.
[[nodiscard]] EventArena* ArmedEventArena() noexcept;

/// Arms `arena` (which may be nullptr — the explicit "heap path" state)
/// for the scope's duration, restoring whatever was armed before. One
/// scope wraps one execution in ExecutionRunner::RunOne, so Runtimes built
/// outside a runner on the same thread are unaffected.
class ScopedEventArenaArm {
 public:
  explicit ScopedEventArenaArm(EventArena* arena) noexcept;
  ~ScopedEventArenaArm();
  ScopedEventArenaArm(const ScopedEventArenaArm&) = delete;
  ScopedEventArenaArm& operator=(const ScopedEventArenaArm&) = delete;

 private:
  EventArena* previous_;
};

/// Temporarily disarms the arena so allocations inside the scope go to the
/// heap and their deletes are real. Runtime::SealForReuse clones the
/// setup-event prototypes under this scope — they must survive every
/// ResetEpoch for the recycled Runtime's lifetime.
class ScopedEventArenaPause {
 public:
  ScopedEventArenaPause() noexcept;
  ~ScopedEventArenaPause();
  ScopedEventArenaPause(const ScopedEventArenaPause&) = delete;
  ScopedEventArenaPause& operator=(const ScopedEventArenaPause&) = delete;

 private:
  EventArena* previous_;
};

}  // namespace systest::detail
