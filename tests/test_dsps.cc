// DSPS programming-model tests: tuple serde (both wire formats of Fig. 9),
// topology building, value hashing, the compact Value and the shared
// TupleRef handle, and the message envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <variant>

#include "core/message.h"
#include "dsps/serde.h"
#include "dsps/topology.h"

// Deallocation watch: the TupleRef tests point g_watched at one heap block
// (a long string's character buffer) and count how often it is freed.
namespace {
const void* g_watched = nullptr;
int g_watched_frees = 0;

void note_free(void* p) {
  if (p != nullptr && p == g_watched) ++g_watched_frees;
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined into a new-expression's caller, the free()
// trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}

namespace whale::dsps {
namespace {

Tuple sample_tuple() {
  Tuple t;
  t.values = {Value{int64_t{42}}, Value{3.5}, Value{std::string("symbol")}};
  t.stream = 3;
  t.root_id = 777;
  t.root_emit_time = ms(12);
  return t;
}

TEST(Serde, BodyRoundTrip) {
  const Tuple t = sample_tuple();
  ByteWriter w;
  TupleSerde::encode_body(t, w);
  ByteReader r(w.data());
  const Tuple d = TupleSerde::decode_body(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(d.stream, t.stream);
  EXPECT_EQ(d.root_id, t.root_id);
  EXPECT_EQ(d.root_emit_time, t.root_emit_time);
  ASSERT_EQ(d.values.size(), 3u);
  EXPECT_EQ(d.as_int(0), 42);
  EXPECT_DOUBLE_EQ(d.as_double(1), 3.5);
  EXPECT_EQ(d.as_string(2), "symbol");
}

TEST(Serde, EmptyTupleRoundTrip) {
  Tuple t;
  ByteWriter w;
  TupleSerde::encode_body(t, w);
  ByteReader r(w.data());
  const Tuple d = TupleSerde::decode_body(r);
  EXPECT_TRUE(d.values.empty());
}

TEST(Serde, InstanceMessageCarriesOneDestination) {
  const Tuple t = sample_tuple();
  const auto bytes = TupleSerde::encode_instance_message(17, t);
  const auto m = TupleSerde::decode_instance_message(bytes);
  EXPECT_EQ(m.dst_task, 17);
  EXPECT_EQ(m.tuple.as_int(0), 42);
}

TEST(Serde, BatchMessageCarriesIdList) {
  const Tuple t = sample_tuple();
  const std::vector<int32_t> ids = {3, 19, 480, 7};
  const auto bytes = TupleSerde::encode_batch_message(ids, t);
  const auto m = TupleSerde::decode_batch_message(bytes);
  ASSERT_EQ(m.dst_tasks.size(), ids.size());
  EXPECT_TRUE(std::equal(m.dst_tasks.begin(), m.dst_tasks.end(), ids.begin()));
  EXPECT_EQ(m.tuple.as_string(2), "symbol");
}

TEST(Serde, BatchCheaperThanRepeatedInstanceMessages) {
  // The size argument for worker-oriented communication (Fig. 9): one
  // batch message to k colocated instances is far smaller than k instance
  // messages.
  const Tuple t = sample_tuple();
  std::vector<int32_t> ids;
  size_t instance_total = 0;
  for (int32_t i = 0; i < 16; ++i) {
    ids.push_back(i);
    instance_total += TupleSerde::encode_instance_message(i, t).size();
  }
  const size_t batch = TupleSerde::encode_batch_message(ids, t).size();
  EXPECT_LT(batch * 4, instance_total);
}

TEST(Serde, BodySizeMatchesEncoding) {
  const Tuple t = sample_tuple();
  ByteWriter w;
  TupleSerde::encode_body(t, w);
  EXPECT_EQ(TupleSerde::body_size(t), w.size());
}

TEST(ValueHash, StableAndSpread) {
  EXPECT_EQ(value_hash(Value{int64_t{5}}), value_hash(Value{int64_t{5}}));
  EXPECT_NE(value_hash(Value{int64_t{5}}), value_hash(Value{int64_t{6}}));
  EXPECT_EQ(value_hash(Value{std::string("abc")}),
            value_hash(Value{std::string("abc")}));
  EXPECT_NE(value_hash(Value{std::string("abc")}),
            value_hash(Value{std::string("abd")}));
  // Rough uniformity: 1000 consecutive ints spread over 10 buckets.
  std::vector<int> buckets(10, 0);
  for (int64_t i = 0; i < 1000; ++i) {
    ++buckets[value_hash(Value{i}) % 10];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 50);
    EXPECT_LT(b, 200);
  }
}

// Pins routing: value_hash outputs recorded with the std::variant Value.
TEST(ValueHash, MatchesRecordedConstants) {
  const std::pair<Value, uint64_t> cases[] = {
      {Value{int64_t{0}}, 0xe220a8397b1dcdafULL},
      {Value{int64_t{1}}, 0x910a2dec89025cc1ULL},
      {Value{int64_t{-1}}, 0xe4d971771b652c20ULL},
      {Value{int64_t{42}}, 0xbdd732262feb6e95ULL},
      {Value{std::numeric_limits<int64_t>::min()}, 0x481ec0a212a9f3dbULL},
      {Value{std::numeric_limits<int64_t>::max()}, 0x2a67d7552e039ea7ULL},
      {Value{0.0}, 0xe220a8397b1dcdafULL},
      {Value{-0.0}, 0x481ec0a212a9f3dbULL},
      {Value{1.5}, 0xd6dab18e1392608aULL},
      {Value{-3.25}, 0x40905a29d4561642ULL},
      {Value{std::numeric_limits<double>::infinity()}, 0x249e5410c2f97d99ULL},
      {Value{std::string("")}, 0xcbf29ce484222325ULL},
      {Value{std::string("a")}, 0xaf63dc4c8601ec8cULL},
      {Value{std::string("symbol")}, 0xe81b0096bc73f511ULL},
      {Value{std::string("a string well past the small-string buffer")},
       0x670c4223fac64529ULL},
  };
  for (const auto& [v, h] : cases) EXPECT_EQ(value_hash(v), h) << v.index();
}

// --- Value: the 16-byte tagged field --------------------------------------------

using VariantValue = std::variant<int64_t, double, std::string>;

template <typename T>
constexpr bool same_acceptance =
    std::is_constructible_v<Value, T> ==
        std::is_constructible_v<VariantValue, T> &&
    std::is_convertible_v<T, Value> == std::is_convertible_v<T, VariantValue>;

static_assert(sizeof(Value) == 16);
static_assert(same_acceptance<int64_t> && same_acceptance<int> &&
              same_acceptance<short> && same_acceptance<char> &&
              same_acceptance<bool> && same_acceptance<unsigned> &&
              same_acceptance<long long> && same_acceptance<uint64_t> &&
              same_acceptance<size_t>);
static_assert(same_acceptance<double> && same_acceptance<float> &&
              same_acceptance<long double>);
static_assert(same_acceptance<std::string> &&
              same_acceptance<const std::string&> &&
              same_acceptance<const char*> &&
              same_acceptance<const char (&)[4]> &&
              same_acceptance<std::string_view>);
static_assert(std::is_nothrow_move_constructible_v<Value>);

const std::string kLong = "a string well past the small-string buffer";

// Every kind survives construction, copy, move and both assignments.
TEST(Value, EveryKindRoundTrips) {
  for (const Value& v :
       {Value{int64_t{-7}}, Value{2.5}, Value{kLong}, Value{std::string()}}) {
    const Value copy(v);
    EXPECT_EQ(copy.index(), v.index());
    EXPECT_TRUE(copy == v);
    Value tmp(v);
    Value moved(std::move(tmp));
    EXPECT_TRUE(moved == v);
    Value assigned;
    assigned = copy;
    EXPECT_TRUE(assigned == v);
    Value move_assigned{int64_t{0}};
    move_assigned = std::move(moved);
    EXPECT_TRUE(move_assigned == v);
  }
  EXPECT_EQ(Value{int64_t{-7}}.as_int(), -7);
  EXPECT_EQ(Value{2.5}.as_double(), 2.5);
  EXPECT_EQ(Value{kLong}.as_string(), kLong);
  EXPECT_EQ(Value{"lit"}.as_string(), "lit");
  EXPECT_EQ(Value{}.index(), 0u);
  EXPECT_EQ(Value{}.as_int(), 0);
}

TEST(Value, ReassignsAcrossKindsAndToItself) {
  Value v{kLong};
  v = Value{int64_t{3}};  // string -> scalar frees the string
  EXPECT_EQ(v.index(), 0u);
  EXPECT_EQ(v.as_int(), 3);
  v = Value{kLong};  // scalar -> string
  EXPECT_EQ(v.as_string(), kLong);
  v = Value{std::string("short")};  // string -> string
  EXPECT_EQ(v.as_string(), "short");
  const Value s{kLong};
  v = s;  // copy-assign string over string
  EXPECT_EQ(v.as_string(), kLong);
  EXPECT_EQ(s.as_string(), kLong);
  v = 1.25;  // converting assignment, as on the variant
  EXPECT_EQ(v.as_double(), 1.25);

  Value& self = v;
  v = self;
  EXPECT_EQ(v.as_double(), 1.25);
  Value str{kLong};
  Value& str_self = str;
  str = str_self;
  EXPECT_EQ(str.as_string(), kLong);
  str = std::move(str_self);
  EXPECT_EQ(str.as_string(), kLong);
}

TEST(Value, MovedFromValueIsValid) {
  Value src{kLong};
  Value dst(std::move(src));
  EXPECT_EQ(dst.as_string(), kLong);
  // The source is valid: copyable, comparable, reassignable.
  const Value copy(src);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(copy == src);
  EXPECT_EQ(src.index(), copy.index());
  src = Value{int64_t{9}};
  EXPECT_EQ(src.as_int(), 9);

  Value scalar{4.0};
  Value taken;
  taken = std::move(scalar);
  EXPECT_EQ(taken.as_double(), 4.0);
  scalar = taken;  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(scalar == taken);
}

// index() and == agree with std::variant, including -0.0 == 0.0, NaN != NaN
// and no equality across kinds (int 0 vs double 0.0 vs "0").
TEST(Value, IndexAndEqualityMatchVariant) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<VariantValue> inputs = {
      int64_t{0}, int64_t{1}, 0.0, -0.0, 1.0, nan, std::string("0"),
      std::string(""), kLong};
  const auto to_value = [](const VariantValue& in) {
    return std::visit([](const auto& x) { return Value{x}; }, in);
  };
  for (const auto& a : inputs) {
    EXPECT_EQ(to_value(a).index(), a.index());
    for (const auto& b : inputs) {
      EXPECT_EQ(to_value(a) == to_value(b), a == b)
          << a.index() << " vs " << b.index();
    }
  }
  const Value n{nan};
  EXPECT_FALSE(n == n);
  EXPECT_TRUE(Value{-0.0} == Value{0.0});
}

TEST(Value, WrongKindAccessThrows) {
  EXPECT_THROW((void)Value{2.0}.as_int(), std::bad_variant_access);
  EXPECT_THROW((void)Value{kLong}.as_int(), std::bad_variant_access);
  EXPECT_THROW((void)Value{int64_t{1}}.as_double(), std::bad_variant_access);
  EXPECT_THROW((void)Value{int64_t{1}}.as_string(), std::bad_variant_access);
  EXPECT_THROW((void)Value{2.0}.as_string(), std::bad_variant_access);
  Tuple t;
  t.values = {Value{int64_t{1}}, Value{2.0}};
  EXPECT_THROW((void)t.as_double(0), std::bad_variant_access);
  EXPECT_THROW((void)t.as_string(1), std::bad_variant_access);
}

// --- TupleRef: the shared tuple handle ------------------------------------------

static_assert(sizeof(TupleRef) == 8);

Tuple long_string_tuple() {
  Tuple t;
  t.values = {Value{int64_t{1}}, Value{kLong}};
  t.root_id = 5;
  return t;
}

TEST(TupleRef, CopiesShareOneBlock) {
  const TupleRef a(sample_tuple());
  EXPECT_EQ(a.use_count(), 1u);
  TupleRef b = a;
  EXPECT_EQ(b.get(), a.get());
  EXPECT_EQ(a.use_count(), 2u);
  {
    TupleRef c;
    c = b;
    EXPECT_EQ(c.get(), a.get());
    EXPECT_EQ(a.use_count(), 3u);
  }
  EXPECT_EQ(a.use_count(), 2u);
  b = a;  // assigning the same block keeps the count
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b->root_id, 777u);
  EXPECT_EQ((*b).as_string(2), "symbol");
}

TEST(TupleRef, MoveEmptiesSource) {
  TupleRef a(sample_tuple());
  const Tuple* block = a.get();
  TupleRef b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.get(), nullptr);
  EXPECT_EQ(a.use_count(), 0u);
  EXPECT_EQ(b.get(), block);
  EXPECT_EQ(b.use_count(), 1u);
  TupleRef c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.get(), block);
  EXPECT_EQ(c.use_count(), 1u);
}

// The last handle to drop destroys the tuple (and its out-of-line string);
// LSan in scripts/check.sh's sanitizer pass reports it if it leaks.
TEST(TupleRef, LastDropDestroysTheTuple) {
  TupleRef a(long_string_tuple());
  g_watched_frees = 0;
  g_watched = a->as_string(1).data();
  TupleRef b = a;
  a = TupleRef();
  EXPECT_EQ(g_watched_frees, 0);
  EXPECT_EQ(b.use_count(), 1u);
  b = TupleRef();
  EXPECT_EQ(g_watched_frees, 1);
  g_watched = nullptr;
}

// --- topology builder ---------------------------------------------------------

struct NopBolt : Bolt {
  Duration execute(const Tuple&, Emitter&) override { return us(1); }
};
struct NopSpout : Spout {
  Tuple next(Rng&) override { return Tuple{}; }
};

TEST(TopologyBuilder, BuildsDag) {
  TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<NopSpout>(); }, 2,
      RateProfile::constant(100));
  const int m = b.add_bolt(
      "m", [] { return std::make_unique<NopBolt>(); }, 8);
  const int a = b.add_bolt(
      "a", [] { return std::make_unique<NopBolt>(); }, 2);
  const int s1 = b.connect(s, m, Grouping::kAll);
  const int s2 = b.connect(m, a, Grouping::kFields, 1);
  const auto topo = b.build();
  EXPECT_EQ(topo.num_tasks(), 12);
  EXPECT_EQ(topo.streams.size(), 2u);
  EXPECT_EQ(topo.ops[0].out_streams, std::vector<int>{s1});
  EXPECT_EQ(topo.ops[1].in_streams, std::vector<int>{s1});
  EXPECT_EQ(topo.ops[1].out_streams, std::vector<int>{s2});
  EXPECT_EQ(topo.streams[1].key_field, 1u);
}

TEST(TopologyBuilder, RejectsBadInputs) {
  TopologyBuilder b;
  EXPECT_THROW(
      b.add_bolt("x", [] { return std::make_unique<NopBolt>(); }, 0),
      std::invalid_argument);
  const int s = b.add_spout(
      "s", [] { return std::make_unique<NopSpout>(); }, 1,
      RateProfile::constant(1));
  const int m = b.add_bolt(
      "m", [] { return std::make_unique<NopBolt>(); }, 1);
  EXPECT_THROW(b.connect(m, s, Grouping::kShuffle), std::invalid_argument);
  EXPECT_THROW(b.connect(s, 99, Grouping::kShuffle), std::out_of_range);
}

TEST(RateProfile, PiecewiseSteps) {
  auto r = RateProfile::constant(1000);
  r.then_at(sec(1), 5000).then_at(sec(2), 0);
  EXPECT_DOUBLE_EQ(r.rate_at(0), 1000);
  EXPECT_DOUBLE_EQ(r.rate_at(sec(1) - 1), 1000);
  EXPECT_DOUBLE_EQ(r.rate_at(sec(1)), 5000);
  EXPECT_DOUBLE_EQ(r.rate_at(sec(3)), 0);
}

// --- message envelope ---------------------------------------------------------

TEST(Envelope, InstanceDataHeader) {
  const auto payload = TupleSerde::encode_instance_message(5, sample_tuple());
  const auto bytes = core::frame(core::MsgKind::kInstanceData, 0, payload);
  const auto env = core::peek(*bytes);
  EXPECT_EQ(env.kind, core::MsgKind::kInstanceData);
  const auto m = TupleSerde::decode_instance_message(
      core::payload_of(*bytes, env));
  EXPECT_EQ(m.dst_task, 5);
}

TEST(Envelope, ControlHeaderCarriesGroup) {
  const std::vector<uint8_t> payload = {9, 9};
  const auto bytes = core::frame(core::MsgKind::kControl, 1234, payload);
  const auto env = core::peek(*bytes);
  EXPECT_EQ(env.kind, core::MsgKind::kControl);
  EXPECT_EQ(env.group, 1234u);
  EXPECT_EQ(core::payload_of(*bytes, env).size(), 2u);
}

TEST(Emitter, CollectsInOrder) {
  Emitter e;
  Tuple a, b;
  a.values = {Value{int64_t{1}}};
  b.values = {Value{int64_t{2}}};
  e.emit(std::move(a), 0);
  e.emit(std::move(b), 1);
  auto& out = e.take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 0u);
  EXPECT_EQ(out[0].second.as_int(0), 1);
  EXPECT_EQ(out[1].first, 1u);
}

}  // namespace
}  // namespace whale::dsps
