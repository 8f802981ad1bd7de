#pragma once

/// \file reference_event_queue.hpp
/// The pre-rewrite simulator event queue, kept as the differential oracle
/// for tests/test_sim_event_queue.cpp and the perf baseline for
/// bench_sim_kernel: a binary heap of fat items (time, id, callback,
/// batchable flag) whose sift steps move each callback, with liveness held
/// in an std::unordered_set of pending ids. Not used by the library — the
/// production queue is sim/event_queue.hpp (a 16-byte key heap over a
/// callback slot arena). Behaviour mirrors commit 75d83f2.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"  // EventFn
#include "sim/types.hpp"

namespace mafic::bench {

class ReferenceEventQueue {
 public:
  using SimTime = sim::SimTime;
  using EventId = sim::EventId;
  using EventFn = sim::EventFn;

  EventId push(SimTime t, EventFn fn, bool batchable = false) {
    const EventId id = next_id_++;
    heap_.push_back(Item{t, id, std::move(fn), batchable});
    std::push_heap(heap_.begin(), heap_.end(), ItemGreater{});
    live_.insert(id);
    return id;
  }

  bool cancel(EventId id) {
    const bool was_live = live_.erase(id) > 0;
    if (was_live) maybe_compact();
    return was_live;
  }

  bool empty() const noexcept { return live_.empty(); }
  std::size_t size() const noexcept { return live_.size(); }

  SimTime next_time() {
    drop_dead_head();
    assert(!heap_.empty());
    return heap_.front().time;
  }

  bool next_is_batchable() {
    drop_dead_head();
    assert(!heap_.empty());
    return heap_.front().batchable;
  }

  struct Popped {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Popped pop() {
    drop_dead_head();
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
    Item& top = heap_.back();
    Popped out{top.time, top.id, std::move(top.fn)};
    live_.erase(top.id);
    heap_.pop_back();
    return out;
  }

  void clear() {
    heap_.clear();
    heap_.shrink_to_fit();
    live_.clear();
  }

  std::size_t heap_footprint() const noexcept { return heap_.size(); }
  std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  static constexpr std::size_t kCompactionFloor = 64;

  struct Item {
    SimTime time;
    EventId id;
    EventFn fn;
    bool batchable = false;

    bool operator>(const Item& other) const noexcept {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  struct ItemGreater {
    bool operator()(const Item& a, const Item& b) const noexcept {
      return a > b;
    }
  };

  void maybe_compact() {
    if (heap_.size() >= kCompactionFloor && heap_.size() > 2 * live_.size()) {
      compact();
    }
  }

  void compact() {
    std::erase_if(heap_,
                  [this](const Item& it) { return !live_.contains(it.id); });
    std::make_heap(heap_.begin(), heap_.end(), ItemGreater{});
    heap_.shrink_to_fit();
    ++compactions_;
  }

  void drop_dead_head() {
    while (!heap_.empty() && !live_.contains(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
      heap_.pop_back();
    }
  }

  std::vector<Item> heap_;
  std::unordered_set<EventId> live_;
  EventId next_id_ = 1;
  std::uint64_t compactions_ = 0;
};

}  // namespace mafic::bench
