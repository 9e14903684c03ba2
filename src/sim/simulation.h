// Discrete event simulation kernel.
//
// The kernel is deliberately minimal: a monotonically advancing clock and a
// priority queue of (time, sequence, callback) events. Ties on time are
// broken by insertion order, so the simulation is fully deterministic.
// Everything else in the project (CPU servers, NICs, queues, the DSPS
// engine) is built as callbacks over this kernel.
//
// Layout: a binary heap holds small POD {time, seq, slot} keys; the
// callbacks live in a slab indexed by slot, recycled through a freelist.
// Sifting the heap therefore moves small PODs instead of callable objects,
// and steady-state scheduling performs zero allocations (the slab and heap
// grow to the high-water mark of concurrently pending events and stay
// there). Callbacks are InlineFunction, so captures up to 48 bytes are
// stored in the slab slot itself.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"

namespace whale::sim {

class Simulation {
 public:
  using Callback = InlineFunction;

  Time now() const { return now_; }
  uint64_t events_processed() const { return processed_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

  // Templated so the callable is constructed directly in its slab slot —
  // no intermediate InlineFunction hop per event on the hot path.
  template <typename Fn>
  void schedule_at(Time t, Fn&& fn) {
    assert(t >= now_ && "cannot schedule in the past");
    uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = slab_[slot].next_free;
      slab_[slot].fn.emplace(std::forward<Fn>(fn));
    } else {
      slot = static_cast<uint32_t>(slab_.size());
      slab_.push_back(Record{Callback(std::forward<Fn>(fn)), kNilSlot});
    }
    // The heap key packs (seq, slot) into one word: seq in the high 40
    // bits, slot in the low 24. seq values are unique and dominate the
    // high bits, so comparing packed keys orders ties by insertion exactly
    // like comparing seq alone. The bounds are astronomically above any
    // real run (2^40 events, 2^24 concurrently pending) but are checked so
    // an overflow can never silently reorder events.
    if (seq_ >= (uint64_t{1} << 40) || slot >= (uint32_t{1} << 24)) {
      std::abort();
    }
    heap_.push_back(HeapEntry{t, (seq_++ << 24) | slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  template <typename Fn>
  void schedule_after(Duration d, Fn&& fn) {
    assert(d >= 0);
    schedule_at(now_ + d, std::forward<Fn>(fn));
  }

  // Runs the earliest event. Returns false if the queue was empty.
  bool step() {
    if (heap_.empty()) return false;
    pop_and_run();
    return true;
  }

  // Processes every event with time <= t, then advances the clock to t.
  // Each iteration reads heap_.front() exactly once and fully pops the
  // event before invoking its callback, so a throwing callback can never
  // leave a partially-popped heap behind.
  void run_until(Time t) {
    while (!heap_.empty() && heap_.front().time <= t) pop_and_run();
    if (now_ < t) now_ = t;
  }

  // Runs until no events remain (or `max_events` as a runaway guard).
  void run(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

 private:
  static constexpr uint32_t kNilSlot = UINT32_MAX;

  // Pops and runs the top event. Precondition: !heap_.empty(). The pop is
  // complete (heap, clock, slab slot all consistent) before the callback
  // is invoked, so an exception from the callback unwinds cleanly.
  void pop_and_run() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const HeapEntry ev = heap_.back();
    heap_.pop_back();
    now_ = ev.time;
    ++processed_;
    // Move the callback out and recycle the slot BEFORE invoking: the
    // callback may schedule further events, growing (and reallocating)
    // the slab under our feet.
    const uint32_t slot = static_cast<uint32_t>(ev.key & 0xFFFFFFu);
    Callback fn = std::move(slab_[slot].fn);
    slab_[slot].next_free = free_head_;
    free_head_ = slot;
    if (fn) fn();
  }

  // 16 bytes: two entries per sift move, four per cache line.
  struct HeapEntry {
    Time time;
    uint64_t key;  // (seq << 24) | slot
  };

  struct Record {
    Callback fn;
    uint32_t next_free;
  };

  // Min-heap comparator: "a fires later than b" puts the earliest
  // (time, seq) at heap_.front(). (time, seq) keys are unique, so this is
  // a strict total order and the pop sequence is fully deterministic.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  std::vector<HeapEntry> heap_;
  std::vector<Record> slab_;
  uint32_t free_head_ = kNilSlot;
  Time now_ = 0;
  uint64_t seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace whale::sim
