// Regression tests for the allocation-free kernel and pooled zero-copy
// framing path:
//  - body_size() is computed arithmetically and must stay equal to the
//    size of the actual encoding for every field shape.
//  - BoundedQueue::front() on an empty queue aborts instead of reading
//    through a dangling reference.
//  - The simulator is bit-deterministic: the same seed produces the same
//    RunReport fingerprint, run after run.
//  - frame() over a PoolWriter prepends the envelope in place: the payload
//    bytes are never copied (pointer identity through the pool).
//  - Idle transport state is free: constructing a QueuePair, an empty
//    CompletionQueue or an empty sim::Ring allocates no container storage
//    (a counting operator new in this binary checks it).
//  - Compact tuples: a shared four-scalar tuple (TupleRef block plus its
//    value array) requests no block larger than the slab's 64-byte class.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "apps/ride_hailing_app.h"
#include "common/buffer.h"
#include "common/inline_function.h"
#include "core/engine.h"
#include "core/message.h"
#include "dsps/serde.h"
#include "dsps/tuple.h"
#include "net/fabric.h"
#include "rdma/verbs.h"
#include "sim/cpu.h"
#include "sim/queue.h"
#include "sim/ring.h"
#include "sim/simulation.h"

// Every global operator new in this binary bumps the counter and records
// the largest request; the allocation-guard tests read them around a
// construction. The standard library's new[] forwards here; nothing
// tested uses over-aligned types.
namespace {
uint64_t g_allocs = 0;
std::size_t g_max_request = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (n > g_max_request) g_max_request = n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined into a new-expression's caller, the free()
// trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace whale {
namespace {

// --- satellite (a): arithmetic body_size ------------------------------------

size_t encoded_body_size(const dsps::Tuple& t) {
  ByteWriter w(64);
  dsps::TupleSerde::encode_body(t, w);
  return w.take().size();
}

TEST(BodySize, MatchesEncodedSizeForEveryFieldShape) {
  dsps::Tuple empty;
  empty.stream = 0;
  EXPECT_EQ(dsps::TupleSerde::body_size(empty), encoded_body_size(empty));

  dsps::Tuple ints;
  ints.stream = 7;
  ints.root_id = 123456789;
  ints.root_emit_time = -5;
  ints.values = {int64_t{0}, int64_t{-1}, int64_t{1} << 60};
  EXPECT_EQ(dsps::TupleSerde::body_size(ints), encoded_body_size(ints));

  dsps::Tuple doubles;
  doubles.stream = 300;  // two-byte varint
  doubles.values = {3.14159, -0.0};
  EXPECT_EQ(dsps::TupleSerde::body_size(doubles), encoded_body_size(doubles));

  dsps::Tuple strings;
  strings.stream = 2;
  strings.values = {std::string{}, std::string{"ride"},
                    std::string(200, 'x')};  // 200 > 127: two-byte length
  EXPECT_EQ(dsps::TupleSerde::body_size(strings),
            encoded_body_size(strings));

  dsps::Tuple mixed;
  mixed.stream = 1;
  mixed.root_id = 42;
  mixed.values = {int64_t{9}, std::string{"driver-17"}, 2.5};
  EXPECT_EQ(dsps::TupleSerde::body_size(mixed), encoded_body_size(mixed));
}

TEST(BodySize, VarintSizeBoundaries) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 3u);
  EXPECT_EQ(varint_size(UINT64_MAX), 10u);
}

// --- satellite (b): empty-queue front() guard -------------------------------

TEST(BoundedQueueDeathTest, FrontOnEmptyQueueAborts) {
  sim::BoundedQueue<int> q(4);
  EXPECT_DEATH((void)q.front(), "");
  int v = 1;
  q.try_push(v);
  EXPECT_EQ(q.front(), 1);
  (void)q.try_pop();
  EXPECT_DEATH((void)q.front(), "");
}

// --- satellite (c): same seed, same fingerprint -----------------------------

std::string ride_fingerprint() {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.cores_per_node = 8;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 42;
  apps::RideHailingAppParams p;
  p.matching_parallelism = 16;
  p.aggregation_parallelism = 4;
  p.driver_spout_parallelism = 2;
  p.request_rate = dsps::RateProfile::constant(2000);
  p.driver_rate = dsps::RateProfile::constant(1500);
  core::Engine e(cfg, apps::build_ride_hailing(p).topology);
  return e.run(ms(50), ms(150)).fingerprint();
}

TEST(Determinism, SameSeedSameFingerprint) {
  const std::string first = ride_fingerprint();
  const std::string second = ride_fingerprint();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- satellite (f): zero-copy framing ---------------------------------------

TEST(Framing, PrependsEnvelopeWithoutCopyingPayload) {
  std::vector<uint8_t> payload(1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }

  PoolWriter w(payload.size() + core::kFrameHeadroom, core::kFrameHeadroom);
  w.put_raw(payload.data(), payload.size());
  const uint8_t* payload_ptr = w.data();  // where the body landed

  core::Bytes b = core::frame(core::MsgKind::kBatchData, 0, std::move(w));
  const core::Envelope env = core::peek(*b);
  EXPECT_EQ(env.kind, core::MsgKind::kBatchData);

  // The framed message views the SAME bytes the writer produced: the
  // header was prepended into the reserved headroom, the payload never
  // moved.
  EXPECT_EQ(b.data() + env.header_len, payload_ptr);
  const auto body = core::payload_of(*b, env);
  ASSERT_EQ(body.size(), payload.size());
  EXPECT_EQ(std::memcmp(body.data(), payload.data(), payload.size()), 0);
}

TEST(Framing, McastEnvelopeRoundTripsGroupAndEndpoint) {
  PoolWriter w(64, core::kFrameHeadroom);
  w.put_u64(0xdeadbeef);
  const uint8_t* payload_ptr = w.data();
  core::Bytes b = core::frame_mcast(/*group=*/300, /*endpoint=*/129,
                                    std::move(w));
  const core::Envelope env = core::peek(*b);
  EXPECT_EQ(env.kind, core::MsgKind::kMcastData);
  EXPECT_EQ(env.group, 300u);
  EXPECT_EQ(env.endpoint, 129u);
  EXPECT_EQ(b.data() + env.header_len, payload_ptr);  // still zero-copy
}

TEST(Framing, SharingABufferBumpsRefcountInsteadOfCopying) {
  PoolWriter w(64, core::kFrameHeadroom);
  w.put_u32(7);
  core::Bytes b = core::frame(core::MsgKind::kBatchData, 0, std::move(w));
  EXPECT_EQ(b.use_count(), 1u);

  core::Bytes fanout[8];
  for (auto& dst : fanout) dst = b;
  EXPECT_EQ(b.use_count(), 9u);
  for (const auto& dst : fanout) {
    EXPECT_EQ(dst.data(), b.data());  // relays share, never copy
  }
}

// --- pool + kernel plumbing -------------------------------------------------

TEST(BufferPool, ReleasedBlocksAreReused) {
  auto& pool = BufferPool::instance();
  const uint8_t* first;
  {
    PoolWriter w(200);
    w.put_u8(1);
    core::Bytes b = std::move(w).finish();
    first = b.data();
  }  // refcount hits zero, block returns to the pool
  const uint64_t reuses_before = pool.reuses();
  PoolWriter w2(200);
  w2.put_u8(2);
  core::Bytes b2 = std::move(w2).finish();
  EXPECT_EQ(b2.data(), first);
  EXPECT_GT(pool.reuses(), reuses_before);
}

TEST(InlineFunction, EmplaceReplacesAndRuns) {
  InlineFunction f;
  EXPECT_FALSE(static_cast<bool>(f));
  int hits = 0;
  f.emplace([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);
  f.emplace([&hits] { hits += 10; });
  f();
  EXPECT_EQ(hits, 11);
  f.emplace(nullptr);
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, LargeCapturesFallBackToHeap) {
  struct Big {
    char blob[128];
  } big{};
  big.blob[0] = 'x';
  int hits = 0;
  InlineFunction f([big, &hits] { hits += (big.blob[0] == 'x') ? 1 : 0; });
  InlineFunction g = std::move(f);
  g();
  EXPECT_EQ(hits, 1);
}

TEST(Simulation, SchedulingIsAllocationFreeAtSteadyState) {
  sim::Simulation s;
  // Warm the slab/heap to the high-water mark.
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(i, [] {});
  }
  s.run();
  const uint64_t before = s.events_processed();
  // Steady state: slots and heap capacity are recycled; the chain below
  // must not grow either (checked indirectly: the run completes and the
  // fingerprint/determinism tests above pin behaviour; the allocation
  // count itself is measured by bench_simkernel's counting allocator).
  struct Chain {
    sim::Simulation* sim;
    int remaining;
    void operator()() {
      if (--remaining > 0) sim->schedule_after(1, *this);
    }
  };
  s.schedule_after(1, Chain{&s, 1000});
  s.run();
  EXPECT_EQ(s.events_processed(), before + 1000);
}

// --- idle transport state allocates nothing ---------------------------------

template <typename Fn>
uint64_t allocations_during(Fn&& fn) {
  const uint64_t before = g_allocs;
  fn();
  return g_allocs - before;
}

TEST(Simulation, LaneSchedulingIsAllocationFreeAtSteadyState) {
  // Fixed-delay chains ride the delay lanes. Once the first pass has grown
  // the slab, the heap and the lanes, a second pass allocates nothing.
  struct Chain {
    sim::Simulation* sim;
    int remaining;
    void operator()() {
      if (--remaining > 0) sim->schedule_after(7, *this);
    }
  };
  sim::Simulation s;
  auto pass = [&s] {
    for (int i = 0; i < 16; ++i) s.schedule_after(7, Chain{&s, 200});
    s.run();
  };
  pass();
  const uint64_t before = s.events_processed();
  EXPECT_EQ(allocations_during(pass), 0u);
  EXPECT_EQ(s.events_processed(), before + 16 * 200);
}

class IdleTransportTest : public ::testing::Test {
 protected:
  IdleTransportTest() {
    spec_.num_nodes = 2;
    fabric_ = std::make_unique<net::Fabric>(sim_, spec_);
    cpu_a_ = std::make_unique<sim::CpuServer>(sim_, "a");
    cpu_b_ = std::make_unique<sim::CpuServer>(sim_, "b");
  }

  // Allocations made by constructing (and destroying) an idle QP.
  uint64_t idle_qp_allocations(rdma::Verb verb) {
    rdma::QpConfig qc;
    qc.verb = verb;
    return allocations_during([&] {
      rdma::QueuePair qp(*fabric_, cost_, qc,
                         rdma::QpEndpoint{0, cpu_a_.get()},
                         rdma::QpEndpoint{1, cpu_b_.get()});
      EXPECT_EQ(qp.packets_pending(), 0u);
    });
  }

  sim::Simulation sim_;
  net::ClusterSpec spec_;
  net::CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<sim::CpuServer> cpu_a_, cpu_b_;
};

TEST_F(IdleTransportTest, SendAndWriteQueuePairsAllocateNothing) {
  EXPECT_EQ(idle_qp_allocations(rdma::Verb::kSendRecv), 0u);
  EXPECT_EQ(idle_qp_allocations(rdma::Verb::kWrite), 0u);
}

TEST_F(IdleTransportTest, ReadQueuePairAllocatesOnlyItsRingRegion) {
  EXPECT_EQ(idle_qp_allocations(rdma::Verb::kRead), 1u);
}

TEST(IdleTransport, EmptyCompletionQueueAllocatesNothing) {
  EXPECT_EQ(allocations_during([] {
              rdma::CompletionQueue cq;
              EXPECT_FALSE(cq.poll().has_value());
              EXPECT_EQ(cq.depth(), 0u);
            }),
            0u);
}

TEST(IdleTransport, EmptyRingAllocatesNothingAndClearReleases) {
  EXPECT_EQ(allocations_during([] {
              sim::Ring<std::string> r;
              EXPECT_TRUE(r.empty());
              EXPECT_EQ(r.capacity(), 0u);
              EXPECT_TRUE(r.begin() == r.end());
            }),
            0u);
  // Fill the first slab, pop three and push three more so the live items
  // wrap past the end of the slab: iteration still runs in FIFO order.
  sim::Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(i);
  const size_t cap = r.capacity();
  for (int i = 0; i < 3; ++i) (void)r.pop_front();
  for (int i = 8; i < 11; ++i) r.push_back(i);
  ASSERT_EQ(r.capacity(), cap);
  int expect = 3;
  for (int v : r) EXPECT_EQ(v, expect++);
  EXPECT_EQ(expect, 11);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
}

// --- compact tuples -----------------------------------------------------------

// A four-scalar tuple (the ride-hailing and stock spouts' shape) is one
// 64-byte TupleRef block plus one 64-byte value array: 4 x 16-byte Value.
// Under ctest every case runs in a fresh process, so the slab's freelists
// start empty and each block is a real request; holding 256 handles at
// once outlasts whatever an earlier case in the same process left pooled.
TEST(CompactTuple, SharedFourScalarTupleFitsTheSmallestSlabClass) {
  EXPECT_EQ(sizeof(dsps::Value), 16u);
  EXPECT_LE(4 * sizeof(dsps::Value), size_t{1} << SlabPool::kMinBlockLog);
  std::vector<dsps::TupleRef> held;
  held.reserve(256);
  g_max_request = 0;
  allocations_during([&] {
    for (int i = 0; i < 256; ++i) {
      dsps::Tuple t;
      t.values = {dsps::Value{int64_t{1}}, dsps::Value{int64_t{i}},
                  dsps::Value{52.1}, dsps::Value{13.9}};
      held.emplace_back(std::move(t));
    }
  });
  const size_t max_request = g_max_request;  // gtest output allocates too
  EXPECT_LE(max_request, size_t{1} << SlabPool::kMinBlockLog);
  EXPECT_EQ(held.back()->as_int(1), 255);
}

}  // namespace
}  // namespace whale
