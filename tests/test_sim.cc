// DES kernel tests: event ordering, clock semantics, CPU servers with
// category accounting, throughput resources, and bounded queues.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/queue.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace whale::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulation, TiesBreakFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, RunUntilAdvancesClockPastLastEvent) {
  Simulation s;
  int fired = 0;
  s.schedule_at(100, [&] { ++fired; });
  s.schedule_at(500, [&] { ++fired; });
  s.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 200);
  s.run_until(1000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 1000);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(10, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 40);
  EXPECT_EQ(s.events_processed(), 5u);
}

TEST(Simulation, MaxEventsGuard) {
  Simulation s;
  std::function<void()> forever = [&] { s.schedule_after(1, forever); };
  s.schedule_at(0, forever);
  s.run(/*max_events=*/100);
  EXPECT_EQ(s.events_processed(), 100u);
}

// --- differential kernel test ------------------------------------------------
//
// Drives the kernel (heap plus delay lanes) and a reference
// std::priority_queue on (time, seq) with the same seeded event mix and
// asserts that both fire the same events at the same times, with the same
// pending() / empty() / now() along the way. Each side draws from its own
// copy of the generator in its own pop order, so the two stay in step only
// while their pop orders agree.

// Seeded source of delays: mostly a handful of repeated fixed delays (more
// of them than there are lanes, so lanes are contended, released and
// reclaimed), plus random, zero and far-future ones.
class DelayMix {
 public:
  explicit DelayMix(uint64_t seed) : x_(seed) {}

  Duration next() {
    static constexpr Duration kFixed[] = {81'000, 148'000, 2'500,
                                          10,     20,      30};
    const uint64_t r = draw() % 100;
    if (r < 30) return kFixed[draw() % 3];            // hot fixed delays
    if (r < 40) return kFixed[3 + draw() % 3];        // colder fixed delays
    if (r < 60) return static_cast<Duration>(draw() % 200'000);
    if (r < 72) return 0;
    if (r < 76) return Duration{1'000'000'000'000} +
                       static_cast<Duration>(draw() % 1000);
    return static_cast<Duration>(draw() % 100);
  }

  // Children an event schedules when it fires: 0, 1 or 2 (mean ~1).
  int fanout() {
    const uint64_t r = draw() % 8;
    return r < 2 ? 0 : (r < 6 ? 1 : 2);
  }

 private:
  uint64_t draw() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  uint64_t x_;
};

struct Fired {
  int id;
  Time at;
  size_t pending;  // seen from inside the callback
  bool operator==(const Fired&) const = default;
};

// The kernel under test. Event ids are handed out in scheduling order.
struct KernelSide {
  explicit KernelSide(uint64_t seed, int budget) : mix(seed), budget(budget) {}

  void schedule(Duration d) {
    const int id = next_id++;
    sim.schedule_after(d, [this, id] { fire(id); });
  }
  void fire(int id) {
    fired.push_back(Fired{id, sim.now(), sim.pending()});
    for (int k = mix.fanout(); k > 0 && next_id < budget; --k) {
      schedule(mix.next());
    }
  }

  Simulation sim;
  DelayMix mix;
  int budget;
  int next_id = 0;
  std::vector<Fired> fired;
};

// The reference: a plain priority queue on (time, seq).
struct ReferenceSide {
  using Event = std::tuple<Time, uint64_t, int>;  // (time, seq, id)

  explicit ReferenceSide(uint64_t seed, int budget)
      : mix(seed), budget(budget) {}

  void schedule(Duration d) { queue.emplace(now + d, seq++, next_id++); }
  void fire_next() {
    const auto [t, seq_unused, id] = queue.top();
    queue.pop();
    now = t;
    fired.push_back(Fired{id, now, queue.size()});
    for (int k = mix.fanout(); k > 0 && next_id < budget; --k) {
      schedule(mix.next());
    }
  }
  void run_until(Time t) {
    while (!queue.empty() && std::get<0>(queue.top()) <= t) fire_next();
    if (now < t) now = t;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  DelayMix mix;
  int budget;
  Time now = 0;
  uint64_t seq = 0;
  int next_id = 0;
  std::vector<Fired> fired;
};

TEST(Simulation, LanesPopInTheSameOrderAsAPlainHeap) {
  for (const uint64_t seed : {1ULL, 42ULL, 0x9E3779B97F4A7C15ULL}) {
    SCOPED_TRACE(seed);
    constexpr int kBudget = 60'000;
    KernelSide k(seed, kBudget);
    ReferenceSide r(seed, kBudget);
    DelayMix outside(seed + 1);
    // Seed both queues, then alternate run_until cut-offs, single steps
    // and events scheduled from outside any callback.
    for (int i = 0; i < 64; ++i) {
      const Duration d = outside.next();
      k.schedule(d);
      r.schedule(d);
    }
    Time cut = 0;
    for (int round = 0; round < 400 && !r.queue.empty(); ++round) {
      cut += static_cast<Duration>(outside.next() % 50'000);
      k.sim.run_until(cut);
      r.run_until(cut);
      ASSERT_EQ(k.sim.now(), r.now);
      ASSERT_EQ(k.sim.pending(), r.queue.size());
      ASSERT_EQ(k.sim.empty(), r.queue.empty());
      if (round % 7 == 0 && !r.queue.empty()) {
        ASSERT_TRUE(k.sim.step());
        r.fire_next();
        ASSERT_EQ(k.sim.now(), r.now);
      }
      for (int i = 0; i < 3; ++i) {
        const Duration d = outside.next();
        k.schedule(d);
        r.schedule(d);
      }
    }
    // Drain everything left, far-future timers included.
    k.sim.run();
    while (!r.queue.empty()) r.fire_next();
    EXPECT_TRUE(k.sim.empty());
    EXPECT_EQ(k.sim.pending(), 0u);
    EXPECT_FALSE(k.sim.step());
    EXPECT_EQ(k.sim.now(), r.now);
    ASSERT_EQ(k.fired.size(), r.fired.size());
    EXPECT_GT(k.fired.size(), 50'000u);
    for (size_t i = 0; i < k.fired.size(); ++i) {
      ASSERT_EQ(k.fired[i], r.fired[i]) << "event #" << i;
    }
    EXPECT_EQ(k.sim.events_processed(), k.fired.size());
  }
}

// --- CpuServer ---------------------------------------------------------------

TEST(CpuServer, FcfsServiceTimes) {
  Simulation s;
  CpuServer cpu(s, "t");
  std::vector<Time> done;
  cpu.execute(us(10), CpuCategory::kAppLogic, [&] { done.push_back(s.now()); });
  cpu.execute(us(5), CpuCategory::kAppLogic, [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(15));  // queued behind the first
  EXPECT_EQ(cpu.busy_time(), us(15));
}

TEST(CpuServer, CategoryAccounting) {
  Simulation s;
  CpuServer cpu(s, "t");
  cpu.execute(us(7), CpuCategory::kSerialization);
  cpu.execute(us(3), CpuCategory::kProtocol);
  cpu.execute(us(2), CpuCategory::kSerialization);
  s.run();
  EXPECT_EQ(cpu.busy_time(CpuCategory::kSerialization), us(9));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kProtocol), us(3));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kAppLogic), 0);
}

TEST(CpuServer, UtilizationWindow) {
  Simulation s;
  CpuServer cpu(s, "t");
  cpu.execute(us(50), CpuCategory::kAppLogic);
  s.run_until(us(100));
  cpu.mark_window();  // window starts at t=100 with 50us accumulated
  cpu.execute(us(30), CpuCategory::kAppLogic);
  s.run_until(us(200));
  EXPECT_NEAR(cpu.utilization(us(100)), 0.3, 1e-9);
}

TEST(CpuServer, WorkSubmittedWhileBusyQueues) {
  Simulation s;
  CpuServer cpu(s, "t");
  int completed = 0;
  cpu.execute(us(10), CpuCategory::kOther, [&] {
    ++completed;
    // Submitted mid-run: must run after, not concurrently.
    EXPECT_FALSE(cpu.busy() && completed == 2);
  });
  s.schedule_at(us(2), [&] {
    EXPECT_TRUE(cpu.busy());
    cpu.execute(us(1), CpuCategory::kOther, [&] { ++completed; });
  });
  s.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(s.now(), us(11));
}

TEST(CpuServer, ExecuteFromDoneQueuesBehindWaitingJobs) {
  Simulation s;
  CpuServer cpu(s, "t");
  std::vector<std::pair<int, Time>> done;
  cpu.execute(us(10), CpuCategory::kAppLogic, [&] {
    done.emplace_back(1, s.now());
    // Still busy while `done` runs: this job queues behind job 2.
    EXPECT_TRUE(cpu.busy());
    cpu.execute(us(3), CpuCategory::kSerialization,
                [&] { done.emplace_back(3, s.now()); });
    EXPECT_EQ(cpu.queue_depth(), 2u);
  });
  cpu.execute(us(5), CpuCategory::kProtocol, [&] {
    done.emplace_back(2, s.now());
    cpu.execute(us(1), CpuCategory::kSerialization, [&] {
      done.emplace_back(4, s.now());
      // Last job: nothing queued, so this one starts straight away.
      cpu.execute(us(2), CpuCategory::kAppLogic,
                  [&] { done.emplace_back(5, s.now()); });
    });
  });
  s.run();
  EXPECT_EQ(done, (std::vector<std::pair<int, Time>>{
                      {1, us(10)}, {2, us(15)}, {3, us(18)}, {4, us(19)},
                      {5, us(21)}}));
  EXPECT_FALSE(cpu.busy());
  EXPECT_EQ(cpu.busy_time(), us(21));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kAppLogic), us(12));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kProtocol), us(5));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kSerialization), us(4));
}

// --- CorePool -------------------------------------------------------------------

TEST(CorePool, ParallelUpToCoreCount) {
  Simulation s;
  CorePool pool(s, 2);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    pool.acquire(us(10), [&] { done.push_back(s.now()); });
  }
  s.run();
  ASSERT_EQ(done.size(), 4u);
  // Two run immediately, two wait for a core.
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(10));
  EXPECT_EQ(done[2], us(20));
  EXPECT_EQ(done[3], us(20));
  EXPECT_EQ(pool.busy_time(), us(40));
}

TEST(CorePool, ThreadsContendWhenOversubscribed) {
  // 3 single-threaded servers sharing 1 core: total completion time is the
  // serialized sum; with 3 cores they overlap fully.
  for (const int cores : {1, 3}) {
    Simulation s;
    CorePool pool(s, cores);
    std::vector<std::unique_ptr<CpuServer>> threads;
    for (int i = 0; i < 3; ++i) {
      threads.push_back(std::make_unique<CpuServer>(
          s, "t" + std::to_string(i), &pool));
      threads.back()->execute(us(10), CpuCategory::kAppLogic);
    }
    s.run();
    EXPECT_EQ(s.now(), cores == 1 ? us(30) : us(10)) << cores << " cores";
  }
}

TEST(CorePool, ServerStaysFifoThroughPool) {
  Simulation s;
  CorePool pool(s, 1);
  CpuServer a(s, "a", &pool);
  std::vector<int> order;
  a.execute(us(5), CpuCategory::kOther, [&] { order.push_back(1); });
  a.execute(us(5), CpuCategory::kOther, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- ThroughputResource ---------------------------------------------------------

TEST(ThroughputResource, TransferTimeMatchesBandwidth) {
  Simulation s;
  ThroughputResource nic(s, "nic", 1e9);  // 1 Gbps
  // 1250 bytes = 10000 bits -> 10 us at 1 Gbps.
  EXPECT_EQ(nic.transfer_time(1250), us(10));
}

TEST(ThroughputResource, SerializesTransfers) {
  Simulation s;
  ThroughputResource nic(s, "nic", 1e9);
  std::vector<Time> done;
  nic.transfer(1250, [&] { done.push_back(s.now()); });
  nic.transfer(1250, [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(20));
  EXPECT_EQ(nic.bytes_transferred(), 2500u);
}

TEST(ThroughputResource, FixedOverheadPerTransfer) {
  Simulation s;
  ThroughputResource nic(s, "nic", 1e9);
  Time done = 0;
  nic.transfer(1250, [&] { done = s.now(); }, us(2));
  s.run();
  EXPECT_EQ(done, us(12));
}

// --- BoundedQueue ---------------------------------------------------------------

TEST(BoundedQueue, CapacityEnforced) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.max_occupancy(), 2u);
}

TEST(BoundedQueue, LvaluePushPreservedOnRejection) {
  BoundedQueue<std::unique_ptr<int>> q(1);
  auto a = std::make_unique<int>(1);
  auto b = std::make_unique<int>(2);
  EXPECT_TRUE(q.try_push(a));
  EXPECT_EQ(a, nullptr);  // moved on success
  EXPECT_FALSE(q.try_push(b));
  ASSERT_NE(b, nullptr);  // untouched on failure
  EXPECT_EQ(*b, 2);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) q.try_push(int(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.try_pop(), i);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, OnItemFiresOnEmptyToNonEmpty) {
  BoundedQueue<int> q(10);
  int wakeups = 0;
  q.set_on_item([&] { ++wakeups; });
  q.try_push(1);
  q.try_push(2);  // still non-empty: no second wakeup
  EXPECT_EQ(wakeups, 1);
  q.try_pop();
  q.try_pop();
  q.try_push(3);
  EXPECT_EQ(wakeups, 2);
}

TEST(BoundedQueue, PopReleasesOneSpaceWaiterFifo) {
  BoundedQueue<int> q(1);
  q.try_push(1);
  std::vector<int> released;
  q.wait_for_space([&] { released.push_back(1); });
  q.wait_for_space([&] { released.push_back(2); });
  q.try_pop();
  EXPECT_EQ(released, (std::vector<int>{1}));
  q.try_pop();  // queue empty; second waiter released on this pop? No item.
  EXPECT_EQ(released, (std::vector<int>{1}));
  q.try_push(9);
  q.try_pop();
  EXPECT_EQ(released, (std::vector<int>{1, 2}));
}

TEST(BoundedQueue, CountersConsistent) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 6; ++i) q.try_push(int(i));
  while (q.try_pop()) {
  }
  EXPECT_EQ(q.pushed(), 4u);
  EXPECT_EQ(q.popped(), 4u);
  EXPECT_EQ(q.rejected(), 2u);
}

}  // namespace
}  // namespace whale::sim
