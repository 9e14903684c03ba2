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
//
// Delay lanes: most events of a run are CPU-job completions with one of a
// few constant costs, scheduled `now() + d` for a fixed d. kLanes FIFO
// lanes sit in front of the heap; an event whose delay equals a non-empty
// lane's delay is appended to that lane in O(1) instead of sifting the
// heap. An empty lane belongs to no delay and is claimed only by a delay
// seen on two consecutive heap-bound pushes, so one-off timers never pin a
// lane. Every lane is sorted by construction (now() never goes back and
// seq always rises), so popping the earliest of the heap top and the lane
// fronts, compared on the full (time, seq) key, yields exactly the pop
// order of the heap alone. A bitmask of non-empty lanes keeps the cost of
// a lane-free run to one branch per push and one per pop.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"
#include "sim/ring.h"

namespace whale::sim {

class Simulation {
 public:
  using Callback = InlineFunction;

  // Fixed, not a knob: replaying recorded workload traces, 2, 4 and 8
  // lanes cost the same within noise, about half of the heap alone
  // (DESIGN.md §8).
  static constexpr int kLanes = 4;

  Time now() const { return now_; }
  uint64_t events_processed() const { return processed_; }
  bool empty() const { return heap_.empty() && lane_mask_ == 0; }
  size_t pending() const {
    size_t n = heap_.size();
    for (const auto& lane : lanes_) n += lane.size();
    return n;
  }

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
      if (slot >= (uint32_t{1} << 24)) std::abort();
      slab_.push_back(Record{Callback(std::forward<Fn>(fn)), kNilSlot});
    }
    // The key packs (seq, slot) into one word: seq in the high 40 bits,
    // slot in the low 24. seq values are unique and dominate the high
    // bits, so comparing packed keys orders ties by insertion exactly like
    // comparing seq alone. The bounds are astronomically above any real
    // run (2^40 events, 2^24 concurrently pending) but are checked so an
    // overflow can never silently reorder events; a slot index is new, and
    // checked above, only when the slab grows.
    if (seq_ >= (uint64_t{1} << 40)) std::abort();
    const Entry ev{t, (seq_++ << 24) | slot};
    const Duration d = t - now_;
    // One branch while no lane is in use and the delay is not repeating.
    if (lane_mask_ != 0 || d == last_heap_delay_) {
      if (try_lane(d, ev)) return;
    }
    last_heap_delay_ = d;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  template <typename Fn>
  void schedule_after(Duration d, Fn&& fn) {
    assert(d >= 0);
    schedule_at(now_ + d, std::forward<Fn>(fn));
  }

  // Runs the earliest event. Returns false if the queue was empty.
  bool step() {
    const Source src = earliest();
    if (src.top == nullptr) return false;
    pop_and_run(src);
    return true;
  }

  // Processes every event with time <= t, then advances the clock to t.
  // Each iteration locates the earliest event once and fully pops it
  // before invoking its callback, so a throwing callback can never leave a
  // partially-popped queue behind.
  void run_until(Time t) {
    for (Source src = earliest(); src.top != nullptr && src.top->time <= t;
         src = earliest()) {
      pop_and_run(src);
    }
    if (now_ < t) now_ = t;
  }

  // Runs until no events remain (or `max_events` as a runaway guard).
  void run(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

 private:
  static constexpr uint32_t kNilSlot = UINT32_MAX;
  static constexpr uint32_t kAllLanes = (uint32_t{1} << kLanes) - 1;
  static constexpr int kHeap = -1;

  // 16 bytes: two entries per sift move, four per cache line.
  struct Entry {
    Time time;
    uint64_t key;  // (seq << 24) | slot
  };

  struct Record {
    Callback fn;
    uint32_t next_free;
  };

  // The earliest pending event: `top` is null when nothing is pending;
  // `lane` is the lane holding it, or kHeap.
  struct Source {
    const Entry* top;
    int lane;
  };

  // Min-heap comparator: "a fires later than b" puts the earliest
  // (time, seq) at heap_.front(). (time, seq) keys are unique, so this is
  // a strict total order and the pop sequence is fully deterministic.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  // Appends `ev` (scheduled with delay d) to the non-empty lane of delay
  // d, or claims an empty lane for d if d repeats the last heap-bound
  // delay. Returns false if `ev` belongs in the heap. Forced inline: on a
  // lane-heavy run it handles most pushes, and GCC outlines it.
  [[gnu::always_inline]] bool try_lane(Duration d, const Entry& ev) {
    for (uint32_t m = lane_mask_; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      if (lane_delay_[i] == d) {
        lanes_[i].push_back(ev);
        return true;
      }
    }
    const uint32_t idle = ~lane_mask_ & kAllLanes;
    if (d != last_heap_delay_ || idle == 0) return false;
    const int i = std::countr_zero(idle);
    lane_delay_[i] = d;
    lanes_[i].push_back(ev);
    lane_mask_ |= uint32_t{1} << i;
    return true;
  }

  Source earliest() const {
    Source src{heap_.empty() ? nullptr : &heap_.front(), kHeap};
    for (uint32_t m = lane_mask_; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      const Entry& front = lanes_[i].front();
      if (src.top == nullptr || Later{}(*src.top, front)) src = {&front, i};
    }
    return src;
  }

  // Pops and runs the event `src` names (from earliest()). The pop is
  // complete (queue, clock, slab slot all consistent) before the callback
  // is invoked, so an exception from the callback unwinds cleanly.
  void pop_and_run(Source src) {
    Entry ev;
    if (src.lane == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      ev = heap_.back();
      heap_.pop_back();
    } else {
      ev = lanes_[src.lane].pop_front();
      if (lanes_[src.lane].empty()) lane_mask_ &= ~(uint32_t{1} << src.lane);
    }
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

  std::vector<Entry> heap_;
  std::vector<Record> slab_;
  uint32_t free_head_ = kNilSlot;
  // Bit i is set iff lane i is non-empty. A non-empty lane holds events
  // scheduled with delay lane_delay_[i], in (time, seq) order; an empty
  // lane belongs to no delay.
  uint32_t lane_mask_ = 0;
  Time now_ = 0;
  // Negative until the first heap push: no delay matches it.
  Duration last_heap_delay_ = -1;
  uint64_t seq_ = 0;
  uint64_t processed_ = 0;
  std::array<Duration, kLanes> lane_delay_{};
  std::array<Ring<Entry>, kLanes> lanes_;
};

}  // namespace whale::sim
