// Stream slicing tests (Sec. 4): MMS-triggered flushes, WTL timer flushes,
// timer reset on consumption, and ring-full backpressure behaviour.
#include <gtest/gtest.h>

#include "core/slicing.h"
#include "sim/simulation.h"

namespace whale::core {
namespace {

rdma::Packet packet(uint64_t bytes) {
  return rdma::Packet{
      std::make_shared<const std::vector<uint8_t>>(bytes, 0xCD), 0, 0};
}

struct Harness {
  sim::Simulation sim;
  std::vector<rdma::Bundle> flushed;
  std::vector<std::function<void()>> space_waiters;
  bool accept = true;

  std::unique_ptr<SlicingBuffer> make(uint64_t mms, Duration wtl) {
    return std::make_unique<SlicingBuffer>(
        sim, mms, wtl,
        [this](rdma::Bundle& b) {
          if (!accept) return false;
          flushed.push_back(std::move(b));
          b.clear();
          return true;
        },
        [this](std::function<void()> retry) {
          space_waiters.push_back(std::move(retry));
        });
  }
};

TEST(Slicing, MmsTriggersImmediateFlush) {
  Harness h;
  auto sl = h.make(1000, ms(10));
  sl->add(packet(400));
  sl->add(packet(400));
  EXPECT_TRUE(h.flushed.empty());  // 800 < MMS
  sl->add(packet(400));            // 1200 >= MMS
  ASSERT_EQ(h.flushed.size(), 1u);
  EXPECT_EQ(h.flushed[0].size(), 3u);
  EXPECT_EQ(sl->buffered_bytes(), 0u);
}

TEST(Slicing, WtlFlushesLightTraffic) {
  Harness h;
  auto sl = h.make(1 << 20, ms(1));
  sl->add(packet(100));
  h.sim.run_until(us(900));
  EXPECT_TRUE(h.flushed.empty());
  h.sim.run_until(ms(2));
  ASSERT_EQ(h.flushed.size(), 1u);
  EXPECT_EQ(sl->timer_flushes(), 1u);
}

TEST(Slicing, TimerResetsWhenWorkRequestConsumed) {
  Harness h;
  auto sl = h.make(500, ms(1));
  sl->add(packet(600));  // immediate MMS flush consumes the work request
  ASSERT_EQ(h.flushed.size(), 1u);
  h.sim.run_until(ms(5));
  EXPECT_EQ(sl->timer_flushes(), 0u);  // the stale timer must not fire
}

TEST(Slicing, TimerCoversOldestWaitingTuple) {
  Harness h;
  auto sl = h.make(1 << 20, ms(1));
  sl->add(packet(10));
  h.sim.run_until(us(500));
  sl->add(packet(10));  // second tuple must not extend the first's wait
  h.sim.run_until(ms(1) + us(100));
  ASSERT_EQ(h.flushed.size(), 1u);
  EXPECT_EQ(h.flushed[0].size(), 2u);
}

TEST(Slicing, BackpressureHoldsBundleIntact) {
  Harness h;
  h.accept = false;  // ring full
  auto sl = h.make(100, ms(1));
  sl->add(packet(200));
  EXPECT_TRUE(sl->blocked());
  EXPECT_TRUE(h.flushed.empty());
  EXPECT_EQ(sl->buffered_tuples(), 1u);
  ASSERT_EQ(h.space_waiters.size(), 1u);
  // More tuples keep buffering while blocked.
  sl->add(packet(200));
  EXPECT_EQ(sl->buffered_tuples(), 2u);
  // Space opens up: the retry flushes everything accumulated.
  h.accept = true;
  h.space_waiters[0]();
  ASSERT_EQ(h.flushed.size(), 1u);
  EXPECT_EQ(h.flushed[0].size(), 2u);
  EXPECT_FALSE(sl->blocked());
}

TEST(Slicing, UnblockCallbacksFire) {
  Harness h;
  h.accept = false;
  auto sl = h.make(100, ms(1));
  sl->add(packet(200));
  ASSERT_TRUE(sl->blocked());
  int unblocked = 0;
  sl->on_unblock([&] { ++unblocked; });
  h.accept = true;
  h.space_waiters[0]();
  EXPECT_EQ(unblocked, 1);
}

TEST(Slicing, LargerMmsFewerFlushes) {
  // The Fig. 11 mechanism: a bigger MMS amortizes work requests.
  for (const auto& [mms, expected_max] :
       {std::pair<uint64_t, uint64_t>{500, 25},
        std::pair<uint64_t, uint64_t>{5000, 3}}) {
    Harness h;
    auto sl = h.make(mms, sec(10));
    for (int i = 0; i < 20; ++i) sl->add(packet(500));
    EXPECT_LE(sl->flushes(), expected_max) << "mms=" << mms;
    EXPECT_GE(sl->flushes(), 1u) << "mms=" << mms;
  }
}

}  // namespace
}  // namespace whale::core
