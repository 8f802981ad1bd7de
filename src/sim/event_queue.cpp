#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace mafic::sim {

namespace {
/// Below this many keys the dead weight is noise; skip compaction.
constexpr std::size_t kCompactionFloor = 64;

struct KeyGreater {
  template <typename K>
  bool operator()(const K& a, const K& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};
}  // namespace

EventId EventQueue::push(SimTime t, EventFn fn, bool batchable) {
  if (next_seq_ > kMaxSeq) {
    throw std::length_error("EventQueue: event id sequence exhausted");
  }
  std::uint64_t slot = slots_.size();
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else if (slot == kMaxSlots) {
    throw std::length_error("EventQueue: too many pending events");
  } else {
    slots_.emplace_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.id = id;
  s.batchable = batchable;
  heap_.push_back(Key{t, id});
  std::push_heap(heap_.begin(), heap_.end(), KeyGreater{});
  ++live_;
  return id;
}

void EventQueue::release(std::uint64_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

bool EventQueue::cancel(EventId id) {
  if (!is_live(id)) return false;
  const std::uint64_t slot = id & kSlotMask;
  slots_[slot].fn = EventFn{};
  release(slot);
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  if (heap_.size() >= kCompactionFloor && heap_.size() > 2 * live_) {
    compact();
  }
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Key& k) { return !is_live(k.id); });
  std::make_heap(heap_.begin(), heap_.end(), KeyGreater{});
  heap_.shrink_to_fit();
  ++compactions_;
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && !is_live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
    heap_.pop_back();
  }
}

EventQueue::Head EventQueue::peek() {
  drop_dead_head();
  assert(!heap_.empty());
  const Key& top = heap_.front();
  return Head{top.time, slots_[top.id & kSlotMask].batchable};
}

EventQueue::Popped EventQueue::pop() {
  drop_dead_head();
  assert(!heap_.empty());
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
  heap_.pop_back();
  const std::uint64_t slot = top.id & kSlotMask;
  Popped out{top.time, top.id, std::move(slots_[slot].fn)};
  release(slot);
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  heap_.shrink_to_fit();
  slots_.clear();
  slots_.shrink_to_fit();
  free_.clear();
  free_.shrink_to_fit();
  live_ = 0;
}

}  // namespace mafic::sim
