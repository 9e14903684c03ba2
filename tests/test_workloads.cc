// Workload generator and application-bolt tests: ride-hailing join
// correctness (grid index vs brute force), state and slice ownership, cost
// scaling, stock order-book matching, Zipf skew.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "elastic/keyed.h"
#include "state/state_store.h"
#include "workloads/ridehailing.h"
#include "workloads/stock.h"

namespace whale::workloads {
namespace {

dsps::TaskContext ctx(int instance, int parallelism) {
  dsps::TaskContext c;
  c.instance_index = instance;
  c.parallelism = parallelism;
  return c;
}

// --- ride hailing ------------------------------------------------------------

TEST(RideHailing, SpoutsProduceWellFormedTuples) {
  RideHailingParams p;
  Rng rng(1);
  DriverLocationSpout ds(p);
  const auto d = ds.next(rng);
  ASSERT_EQ(d.values.size(), 4u);
  EXPECT_EQ(d.as_int(0), kDriverUpdate);
  EXPECT_GE(d.as_int(1), 0);
  EXPECT_LT(d.as_int(1), p.num_drivers);
  EXPECT_GE(d.as_double(2), 0.0);
  EXPECT_LT(d.as_double(2), p.city_km);

  PassengerRequestSpout rs(p);
  const auto r1 = rs.next(rng);
  const auto r2 = rs.next(rng);
  EXPECT_EQ(r1.as_int(0), kPassengerRequest);
  EXPECT_EQ(r2.as_int(1), r1.as_int(1) + 1);  // monotone request ids
}

TEST(RideHailing, PrepareLoadsOwnedSliceOnly) {
  RideHailingParams p;
  p.num_drivers = 1000;
  const int parallelism = 8;
  size_t total = 0;
  for (int i = 0; i < parallelism; ++i) {
    MatchingBolt b(p);
    b.prepare(ctx(i, parallelism));
    total += b.stored_drivers();
    // Roughly 1/8 of the drivers each.
    EXPECT_GT(b.stored_drivers(), 60u);
    EXPECT_LT(b.stored_drivers(), 250u);
  }
  EXPECT_EQ(total, 1000u);  // a partition: no overlap, no loss
}

TEST(RideHailing, MatchEmitsOnlyDriversWithinRadius) {
  RideHailingParams p;
  p.num_drivers = 0;  // start empty; insert drivers via the stream
  p.radius_km = 1.0;
  MatchingBolt b(p);
  b.prepare(ctx(0, 1));

  auto driver = [&](int64_t id, double x, double y) {
    dsps::Tuple t;
    t.values = {dsps::Value{int64_t{kDriverUpdate}}, dsps::Value{id},
                dsps::Value{x}, dsps::Value{y}};
    dsps::Emitter e;
    b.execute(t, e);
  };
  driver(1, 10.0, 10.0);  // within 1 km of the request below
  driver(2, 10.5, 10.0);
  driver(3, 20.0, 20.0);  // far away
  EXPECT_EQ(b.stored_drivers(), 3u);

  dsps::Tuple req;
  req.values = {dsps::Value{int64_t{kPassengerRequest}},
                dsps::Value{int64_t{99}}, dsps::Value{10.0},
                dsps::Value{10.1}};
  dsps::Emitter e;
  b.execute(req, e);
  auto& out = e.take();
  ASSERT_EQ(out.size(), 2u);
  for (auto& [idx, m] : out) {
    EXPECT_EQ(m.as_int(0), 99);
    EXPECT_NE(m.as_int(1), 3);
    EXPECT_LE(m.as_double(2), 1.0);  // squared distance <= r^2
  }
  // Matches leave in ascending driver-id order.
  EXPECT_EQ(out[0].second.as_int(1), 1);
  EXPECT_EQ(out[1].second.as_int(1), 2);
}

TEST(RideHailing, MatchCostScalesWithSliceSize) {
  // The modeled join time uses the balanced expected slice
  // num_drivers / parallelism (see MatchingBolt::execute): more
  // parallelism -> smaller slice -> cheaper join, linearly.
  RideHailingParams p;
  p.num_drivers = 8000;
  MatchingBolt small(p), large(p);
  small.prepare(ctx(0, 80));  // expected slice 100
  large.prepare(ctx(0, 8));   // expected slice 1000
  dsps::Tuple req;
  req.values = {dsps::Value{int64_t{kPassengerRequest}},
                dsps::Value{int64_t{1}}, dsps::Value{50.0},
                dsps::Value{50.0}};
  dsps::Emitter e1, e2;
  const Duration c_small = small.execute(req, e1);
  const Duration c_large = large.execute(req, e2);
  EXPECT_GT(c_large, c_small);
  EXPECT_EQ(c_large - c_small, p.match_per_driver_cost * (1000 - 100));
}

TEST(RideHailing, AggregationKeepsBestDriver) {
  RideHailingParams p;
  RideAggregationBolt agg(p);
  auto match = [&](int64_t req, int64_t driver, double d2) {
    dsps::Tuple t;
    t.values = {dsps::Value{req}, dsps::Value{driver}, dsps::Value{d2}};
    dsps::Emitter e;
    agg.execute(t, e);
    EXPECT_TRUE(e.take().empty());  // sink
  };
  match(1, 10, 0.5);
  match(1, 11, 0.2);
  match(1, 12, 0.9);
  match(2, 20, 0.3);
  EXPECT_EQ(agg.decided(), 2u);
}

// --- grid-indexed join vs brute force ------------------------------------------
// The matching bolt probes a uniform grid; a reference linear scan over a
// model of every stored position must find the same (driver, d2) pairs,
// with d2 equal as a double, in ascending driver-id order.

using Match = std::pair<int64_t, double>;  // {driver, d2}
using Positions = std::map<int64_t, std::pair<double, double>>;

dsps::Tuple driver_update(int64_t id, double x, double y) {
  dsps::Tuple t;
  t.values = {dsps::Value{int64_t{kDriverUpdate}}, dsps::Value{id},
              dsps::Value{x}, dsps::Value{y}};
  return t;
}

std::vector<Match> join(MatchingBolt& b, double x, double y) {
  dsps::Tuple req;
  req.values = {dsps::Value{int64_t{kPassengerRequest}},
                dsps::Value{int64_t{7}}, dsps::Value{x}, dsps::Value{y}};
  dsps::Emitter e;
  b.execute(req, e);
  std::vector<Match> got;
  for (auto& [idx, m] : e.take()) {
    EXPECT_EQ(m.as_int(0), 7);
    got.emplace_back(m.as_int(1), m.as_double(2));
  }
  return got;
}

std::vector<Match> brute_force(const Positions& drivers, double radius,
                               double x, double y) {
  std::vector<Match> want;  // std::map iterates in ascending id order
  for (const auto& [id, pos] : drivers) {
    const double dx = pos.first - x;
    const double dy = pos.second - y;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= radius * radius) want.emplace_back(id, d2);
  }
  return want;
}

std::vector<uint8_t> snapshot_of(MatchingBolt& b) {
  state::StateStore store;
  b.register_state(store);
  return store.snapshot();
}

void restore_into(MatchingBolt& b, const std::vector<uint8_t>& blob) {
  state::StateStore store;
  b.register_state(store);
  store.restore(blob);
}

// The stored slice, read back from the bolt's keyed checkpoint cell.
Positions stored_slice(MatchingBolt& b) {
  const auto cells = elastic::parse_snapshot(snapshot_of(b));
  EXPECT_EQ(cells.size(), 1u);
  Positions drivers;
  ByteReader r(cells.at(0).second);
  for (const auto& entry : elastic::read_keyed_body(r)) {
    ByteReader pr(entry.payload);
    const int64_t id = pr.get_i64();
    const double x = pr.get_f64();
    const double y = pr.get_f64();
    EXPECT_EQ(entry.key, dsps::value_hash(dsps::Value{id}));
    drivers[id] = {x, y};
  }
  return drivers;
}

// Random churn against a prepared (or empty) slice: driver moves over a
// band reaching `spread` km beyond the city on every side, interleaved
// with requests over the same band, each checked against brute force.
// `id_domain` > 0 draws update ids from [0, id_domain) (stream inserts);
// otherwise updates move the pre-loaded drivers.
void check_churn(const RideHailingParams& p, int parallelism, uint64_t seed,
                 int ops, double spread, int64_t id_domain = 0) {
  MatchingBolt b(p);
  b.prepare(ctx(parallelism - 1, parallelism));
  Positions model = stored_slice(b);
  std::vector<int64_t> owned;
  for (const auto& [id, pos] : model) owned.push_back(id);
  ASSERT_TRUE(id_domain > 0 || !owned.empty());
  Rng rng(seed);
  dsps::Emitter sink;
  for (int op = 0; op < ops; ++op) {
    const double x = rng.uniform(-spread, p.city_km + spread);
    const double y = rng.uniform(-spread, p.city_km + spread);
    if (rng.uniform(0.0, 1.0) < 0.5) {
      const int64_t id =
          id_domain > 0
              ? rng.uniform_int(0, id_domain - 1)
              : owned[static_cast<size_t>(rng.uniform_int(
                    0, static_cast<int64_t>(owned.size()) - 1))];
      b.execute(driver_update(id, x, y), sink);
      model[id] = {x, y};
    } else {
      ASSERT_EQ(join(b, x, y), brute_force(model, p.radius_km, x, y))
          << "seed " << seed << " op " << op << " at (" << x << ", " << y
          << ")";
    }
  }
  EXPECT_EQ(b.stored_drivers(), model.size());
  // Corners, edges and points outside the city.
  const double c = p.city_km;
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {0, 0}, {c, 0}, {0, c}, {c, c}, {c / 2, 0}, {0, c / 2},
           {c, c / 2}, {c / 2, c}, {-0.5, -0.5}, {c + 0.5, c + 0.5},
           {-3 * c, c / 2}, {c / 2, 4 * c}, {std::nextafter(c, 0.0), 1}}) {
    EXPECT_EQ(join(b, x, y), brute_force(model, p.radius_km, x, y))
        << "at (" << x << ", " << y << ")";
  }
}

TEST(RideHailing, GridJoinMatchesBruteForceUnderChurn) {
  RideHailingParams p;
  p.num_drivers = 4000;
  p.radius_km = 3.0;  // a few matches per request at this density
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    check_churn(p, /*parallelism=*/4, seed, /*ops=*/6000, /*spread=*/2.0);
  }
}

TEST(RideHailing, GridJoinTracksADriverMovingAcrossManyCells) {
  RideHailingParams p;
  p.num_drivers = 2000;  // grid side min(100, ceil(sqrt 1000)) = 32
  MatchingBolt b(p);
  b.prepare(ctx(1, 2));
  Positions model = stored_slice(b);
  const int64_t walker = model.begin()->first;
  dsps::Emitter sink;
  // Sweep one driver diagonally through the city and back, past the
  // edges, probing its own position and a point one radius away.
  for (int step = -40; step <= 1040; step += 3) {
    const double v = step * 0.1;
    const double x = step % 2 ? v : p.city_km - v;
    b.execute(driver_update(walker, x, v), sink);
    model[walker] = {x, v};
    ASSERT_EQ(join(b, x, v), brute_force(model, p.radius_km, x, v));
    ASSERT_EQ(join(b, x + p.radius_km, v),
              brute_force(model, p.radius_km, x + p.radius_km, v));
  }
  EXPECT_EQ(b.stored_drivers(), model.size());
}

TEST(RideHailing, GridJoinRadiusCoveringTheWholeCity) {
  RideHailingParams p;
  p.num_drivers = 600;
  p.city_km = 10.0;
  for (double radius : {10.0, 25.0}) {  // one grid cell
    p.radius_km = radius;
    check_churn(p, /*parallelism=*/2, /*seed=*/9, /*ops=*/800,
                /*spread=*/1.0);
  }
}

TEST(RideHailing, GridJoinTinyRadiusWhereTheSliceCapsTheGrid) {
  RideHailingParams p;
  p.num_drivers = 3000;
  p.city_km = 50.0;
  p.radius_km = 0.05;  // city / radius = 1000 cells, sqrt(slice) caps it
  check_churn(p, /*parallelism=*/3, /*seed=*/5, /*ops=*/3000,
              /*spread=*/0.5);
  // Random requests almost never land within 50 m of a driver: probe
  // each stored driver's own position and a point just inside the radius.
  MatchingBolt b(p);
  b.prepare(ctx(0, 3));
  const Positions model = stored_slice(b);
  for (const auto& [id, pos] : model) {
    const auto [x, y] = pos;
    const auto hits = join(b, x, y);
    ASSERT_EQ(hits, brute_force(model, p.radius_km, x, y));
    ASSERT_FALSE(hits.empty());
    const double near = x + 0.999 * p.radius_km;
    ASSERT_EQ(join(b, near, y), brute_force(model, p.radius_km, near, y));
  }
}

TEST(RideHailing, GridJoinFromAnEmptySliceWithStreamInserts) {
  RideHailingParams p;
  p.num_drivers = 0;  // every update for a new id inserts it
  p.city_km = 20.0;
  for (uint64_t seed : {11u, 12u}) {
    check_churn(p, /*parallelism=*/1, seed, /*ops=*/2000, /*spread=*/1.0,
                /*id_domain=*/300);
  }
}

// --- matching state and slice ownership ----------------------------------------

TEST(RideHailing, MatchingSnapshotRestoreSnapshotIsByteStable) {
  RideHailingParams p;
  p.num_drivers = 3000;
  p.radius_km = 4.0;
  MatchingBolt a(p);
  a.prepare(ctx(2, 3));
  Rng rng(21);
  dsps::Emitter sink;
  const Positions before = stored_slice(a);
  std::vector<int64_t> owned;
  for (const auto& [id, pos] : before) owned.push_back(id);
  for (int i = 0; i < 3000; ++i) {  // scramble the cell lists
    const int64_t id = owned[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(owned.size()) - 1))];
    a.execute(driver_update(id, rng.uniform(0.0, p.city_km),
                            rng.uniform(0.0, p.city_km)),
              sink);
  }
  const auto blob = snapshot_of(a);

  // Restore into a freshly prepared instance and into an empty one.
  MatchingBolt prepared(p);
  prepared.prepare(ctx(2, 3));
  RideHailingParams empty_p = p;
  empty_p.num_drivers = 0;
  MatchingBolt empty(empty_p);
  empty.prepare(ctx(2, 3));
  for (MatchingBolt* b : {&prepared, &empty}) {
    restore_into(*b, blob);
    EXPECT_EQ(snapshot_of(*b), blob);
    EXPECT_EQ(b->stored_drivers(), a.stored_drivers());
  }
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, p.city_km);
    const double y = rng.uniform(0.0, p.city_km);
    const auto want = join(a, x, y);
    EXPECT_EQ(join(prepared, x, y), want);
    // The empty-slice instance sizes its grid for zero drivers: a
    // different cell layout must still give the same matches.
    EXPECT_EQ(join(empty, x, y), want);
  }
}

// Asserts the slices are a disjoint cover of 0..n-1 and that each id
// sits exactly where the fields-grouping predicate routes it.
void expect_fields_partition(const std::vector<Positions>& slices, int n) {
  std::vector<int> seen(static_cast<size_t>(n), 0);
  const auto parallelism = static_cast<uint64_t>(slices.size());
  for (size_t i = 0; i < slices.size(); ++i) {
    for (const auto& [id, pos] : slices[i]) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, n);
      ++seen[static_cast<size_t>(id)];
      EXPECT_EQ(dsps::value_hash(dsps::Value{id}) % parallelism, i)
          << "driver " << id;
    }
  }
  for (int id = 0; id < n; ++id) {
    EXPECT_EQ(seen[static_cast<size_t>(id)], 1) << "driver " << id;
  }
}

TEST(RideHailing, SharedDriverSlicesCoverIdsByFieldsHash) {
  RideHailingParams p;
  p.num_drivers = 5000;
  auto shared = std::make_shared<DriverSlices>();
  const int parallelism = 7;
  std::vector<Positions> slices;
  for (int i = 0; i < parallelism; ++i) {
    MatchingBolt b(p, shared);
    b.prepare(ctx(i, parallelism));
    slices.push_back(stored_slice(b));
    // A private split and the shared one agree on every instance.
    MatchingBolt own(p);
    own.prepare(ctx(i, parallelism));
    EXPECT_EQ(stored_slice(own), slices.back());
  }
  expect_fields_partition(slices, p.num_drivers);
}

TEST(RideHailing, PrepareAtANewParallelismReslices) {
  // An elastic spawn prepares with the new parallelism while the shared
  // split was last computed for the old one.
  RideHailingParams p;
  p.num_drivers = 3000;
  auto shared = std::make_shared<DriverSlices>();
  for (int parallelism : {4, 6, 4}) {
    std::vector<Positions> slices;
    for (int i = 0; i < parallelism; ++i) {
      MatchingBolt b(p, shared);
      b.prepare(ctx(i, parallelism));
      slices.push_back(stored_slice(b));
    }
    expect_fields_partition(slices, p.num_drivers);
  }
  // The split also follows num_drivers.
  RideHailingParams fewer = p;
  fewer.num_drivers = 1000;
  std::vector<Positions> slices;
  for (int i = 0; i < 4; ++i) {
    MatchingBolt b(fewer, shared);
    b.prepare(ctx(i, 4));
    slices.push_back(stored_slice(b));
  }
  expect_fields_partition(slices, fewer.num_drivers);
}

// --- stock exchange ------------------------------------------------------------

TEST(Stock, SpoutZipfSkew) {
  StockParams p;
  p.num_symbols = 100;
  StockSpout s(p);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto t = s.next(rng);
    const int64_t sym = t.as_int(0);
    ASSERT_GE(sym, 0);
    ASSERT_LT(sym, 100);
    ++counts[static_cast<size_t>(sym)];
  }
  EXPECT_GT(counts[0], counts[50] * 5);  // heavy head
}

TEST(Stock, SplitFiltersStableFraction) {
  StockParams p;
  SplitBolt split(p, false);
  StockSpout s(p);
  Rng rng(6);
  int forwarded = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    dsps::Emitter e;
    split.execute(s.next(rng), e);
    forwarded += static_cast<int>(e.take().size());
  }
  const double kept = static_cast<double>(forwarded) / n;
  EXPECT_NEAR(kept, 1.0 - p.invalid_fraction, 0.01);
  EXPECT_EQ(split.filtered(), static_cast<uint64_t>(n - forwarded));
}

TEST(Stock, TwoStreamSplitRoutesByType) {
  StockParams p;
  p.invalid_fraction = 0.0;
  SplitBolt split(p, /*two_streams=*/true);
  StockSpout s(p);
  Rng rng(8);
  int buys = 0, sells = 0;
  for (int i = 0; i < 5000; ++i) {
    dsps::Emitter e;
    split.execute(s.next(rng), e);
    for (auto& [stream, t] : e.take()) {
      if (stream == 0) {
        EXPECT_EQ(t.as_int(1), kBuy);
        ++buys;
      } else {
        EXPECT_EQ(stream, 1u);
        EXPECT_EQ(t.as_int(1), kSell);
        ++sells;
      }
    }
  }
  EXPECT_GT(buys, 2000);
  EXPECT_GT(sells, 2000);
}

dsps::Tuple order(int64_t sym, OrderType type, double price, int64_t qty) {
  dsps::Tuple t;
  t.values = {dsps::Value{sym}, dsps::Value{int64_t{type}},
              dsps::Value{price}, dsps::Value{qty}};
  return t;
}

TEST(Stock, MatchingCrossesBuyAndSell) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));  // owns every symbol
  dsps::Emitter e1;
  b.execute(order(7, kSell, 100.0, 10), e1);
  EXPECT_TRUE(e1.take().empty());  // resting sell
  dsps::Emitter e2;
  b.execute(order(7, kBuy, 101.0, 4), e2);  // crosses
  auto& trades = e2.take();
  ASSERT_EQ(trades.size(), 1u);
  EXPECT_EQ(trades[0].second.as_int(0), 7);
  EXPECT_EQ(trades[0].second.as_int(1), 4);
  EXPECT_DOUBLE_EQ(trades[0].second.as_double(2), 100.0);  // resting price
  EXPECT_EQ(b.open_orders(), 1u);  // 6 shares still resting
}

TEST(Stock, NonCrossingPricesRest) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e1, e2;
  b.execute(order(7, kSell, 100.0, 10), e1);
  b.execute(order(7, kBuy, 99.0, 10), e2);  // bid below ask
  EXPECT_TRUE(e2.take().empty());
  EXPECT_EQ(b.open_orders(), 2u);
}

TEST(Stock, PartialFillsAcrossMultipleOrders) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e;
  b.execute(order(7, kSell, 100.0, 3), e);
  b.execute(order(7, kSell, 100.0, 3), e);
  dsps::Emitter e2;
  b.execute(order(7, kBuy, 100.0, 5), e2);
  auto& trades = e2.take();
  ASSERT_EQ(trades.size(), 2u);  // consumed both resting sells
  EXPECT_EQ(trades[0].second.as_int(1), 3);
  EXPECT_EQ(trades[1].second.as_int(1), 2);
  EXPECT_EQ(b.open_orders(), 1u);  // 1 share left on the second sell
}

TEST(Stock, PerOrderCostsValidationPlusBookForOwner) {
  StockParams p;
  p.num_symbols = 400;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 4));  // owns symbols where sym % 4 == 0 (100 symbols)
  dsps::Emitter e;
  const Duration owned = b.execute(order(4, kBuy, 50.0, 1), e);
  const Duration foreign = b.execute(order(5, kBuy, 50.0, 1), e);
  const Duration validation =
      p.validation_fixed_cost + p.validation_per_symbol_cost * 100;
  EXPECT_EQ(foreign, validation);
  EXPECT_EQ(owned, validation + p.book_op_cost);
  EXPECT_EQ(b.open_orders(), 1u);  // only the owned order rests
}

TEST(Stock, ValidationCostShrinksWithParallelism) {
  // The per-order validation covers the instance's owned symbol slice, so
  // matching gets cheaper as parallelism spreads the symbols (the stock
  // counterpart of the ride-hailing join slice, Fig. 15's rising curve).
  StockParams p;
  StockMatchingBolt narrow(p), wide(p);
  narrow.prepare(ctx(1, 8));
  wide.prepare(ctx(1, 128));
  dsps::Emitter e;
  const Duration c_narrow = narrow.execute(order(5, kBuy, 10.0, 1), e);
  const Duration c_wide = wide.execute(order(5, kBuy, 10.0, 1), e);
  EXPECT_GT(c_narrow, c_wide);
  EXPECT_EQ(c_narrow - c_wide,
            p.validation_per_symbol_cost *
                (p.num_symbols / 8 - p.num_symbols / 128));
}

TEST(Stock, VolumeAggregationAccumulates) {
  StockParams p;
  VolumeAggregationBolt agg(p);
  auto trade = [&](int64_t sym, int64_t qty, double price) {
    dsps::Tuple t;
    t.values = {dsps::Value{sym}, dsps::Value{qty}, dsps::Value{price}};
    dsps::Emitter e;
    agg.execute(t, e);
  };
  trade(1, 10, 100.0);
  trade(1, 5, 100.0);
  trade(2, 1, 50.0);
  EXPECT_DOUBLE_EQ(agg.total_volume(), 1550.0);
}

// --- state retention bounds --------------------------------------------------
// These pin the workloads' state-size policies so the checkpoint/state-API
// refit cannot silently change what each operator retains.

TEST(RideHailing, DriverTableIsBoundedByIdDomainUpserts) {
  RideHailingParams p;
  p.num_drivers = 0;
  MatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e;
  for (int round = 0; round < 5; ++round) {
    for (int64_t id = 0; id < 100; ++id) {
      dsps::Tuple t;
      t.values = {dsps::Value{int64_t{kDriverUpdate}}, dsps::Value{id},
                  dsps::Value{1.0 * round}, dsps::Value{2.0}};
      b.execute(t, e);
    }
  }
  // Updates upsert: the table never exceeds the live driver-id domain.
  EXPECT_EQ(b.stored_drivers(), 100u);
}

TEST(RideHailing, AggregationEvictsAllAboveTwoHundredThousandRequests) {
  RideHailingParams p;
  RideAggregationBolt agg(p);
  dsps::Emitter e;
  auto match = [&](int64_t req) {
    dsps::Tuple t;
    t.values = {dsps::Value{req}, dsps::Value{int64_t{1}},
                dsps::Value{0.5}};
    agg.execute(t, e);
  };
  for (int64_t r = 0; r < 200000; ++r) match(r);
  EXPECT_EQ(agg.decided(), 200000u);  // at the bound: retained
  match(200000);                      // one past: full clear
  EXPECT_EQ(agg.decided(), 0u);
}

TEST(Stock, BookDepthCappedAt1024PerSide) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e;
  // Resting sells never cross other sells, so the side only grows until
  // the depth bound starts dropping the oldest order.
  for (int i = 0; i < 1500; ++i) {
    b.execute(order(7, kSell, 100.0, 1), e);
  }
  EXPECT_EQ(b.open_orders(), 1024u);
}

TEST(Stock, VolumeMapEvictsAllAboveOneHundredThousandSymbols) {
  StockParams p;
  VolumeAggregationBolt agg(p);
  dsps::Emitter e;
  auto trade = [&](int64_t sym) {
    dsps::Tuple t;
    t.values = {dsps::Value{sym}, dsps::Value{int64_t{1}},
                dsps::Value{2.0}};
    agg.execute(t, e);
  };
  for (int64_t s = 0; s < 100000; ++s) trade(s);
  EXPECT_EQ(agg.symbols_tracked(), 100000u);  // at the bound: retained
  trade(100000);                              // one past: full clear
  EXPECT_EQ(agg.symbols_tracked(), 0u);
  // The running total survives eviction.
  EXPECT_DOUBLE_EQ(agg.total_volume(), 2.0 * 100001);
}

}  // namespace
}  // namespace whale::workloads
