#pragma once

/// \file event_queue.hpp
/// Min-heap event queue over a callback slot arena. The heap orders
/// 16-byte keys (time, id); each event's callback and batchable flag stay
/// put in a slot, so a sift step moves two words instead of a type-erased
/// callback. Ties in time are broken by insertion sequence so runs are
/// deterministic regardless of heap internals.
///
/// An EventId packs the push sequence number above the slot index, so ids
/// are unique, increase with insertion, and name their slot. An event is
/// live iff its slot still holds its id: cancel() and pop() free the slot
/// at once, and a reused slot carries a newer id, so stale handles and
/// stale heap keys never match. Cancelled keys stay in the heap and are
/// skipped when they surface — but the heap is compacted whenever dead
/// keys outnumber live ones, so long runs with heavy cancellation churn
/// (e.g. probation timers resolved early) cannot grow memory unboundedly.

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "util/unique_function.hpp"

namespace mafic::sim {

using EventFn = util::UniqueFunction<void()>;

class EventQueue {
 public:
  /// Low bits of an EventId: the slot index. At most 2^kSlotBits events
  /// may be pending at once, and at most 2^(64 - kSlotBits) - 1 pushes
  /// made over the queue's lifetime; push() throws std::length_error past
  /// either bound rather than alias a slot or an id.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Schedules `fn` at absolute time `t`; returns a handle usable with
  /// cancel(). Handles are unique for the lifetime of the queue.
  /// `batchable` marks the event as a tick-batchable burst delivery: the
  /// simulator's TickDrain may let it run ahead of a pending fleet drain
  /// (simulator.hpp), because by contract a batchable event defers every
  /// externally visible side effect into that drain.
  EventId push(SimTime t, EventFn fn, bool batchable = false);

  /// Cancels a pending event and destroys its callback. Returns false (and
  /// is harmless) if the id already executed, was already cancelled, or
  /// never existed.
  bool cancel(EventId id);

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }

  /// The earliest live event's time and batchable flag; empty() must be
  /// false.
  struct Head {
    SimTime time;
    bool batchable;
  };
  Head peek();

  SimTime next_time() { return peek().time; }
  bool next_is_batchable() { return peek().batchable; }

  /// Pops the earliest live event. empty() must be false.
  struct Popped {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  void clear();

  /// Heap keys currently held, live or cancelled (tests/diagnostics:
  /// bounded at < 2x live size + the compaction floor).
  std::size_t heap_footprint() const noexcept { return heap_.size(); }
  /// Times the queue rebuilt its heap to shed cancelled keys.
  std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  friend struct EventQueueTestPeer;

  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;

  struct Key {
    SimTime time;
    EventId id;
  };
  struct Slot {
    EventFn fn;
    EventId id = kInvalidEvent;  ///< occupant's id; kInvalidEvent when free
    bool batchable = false;
  };

  bool is_live(EventId id) const noexcept {
    const std::uint64_t slot = id & kSlotMask;
    return id != kInvalidEvent && slot < slots_.size() &&
           slots_[slot].id == id;
  }
  void release(std::uint64_t slot);
  void drop_dead_head();
  /// Removes every cancelled key and re-heapifies. Called when dead keys
  /// exceed half the heap.
  void compact();
  void maybe_compact();

  std::vector<Key> heap_;  ///< std::*_heap on KeyGreater
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< released slot indices, LIFO
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t compactions_ = 0;
};

}  // namespace mafic::sim
