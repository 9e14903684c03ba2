// Synthetic on-demand ride-hailing workload (substitute for the Didi GAIA
// dataset, Sec. 5.1 / Fig. 4).
//
// Two streams over a city grid:
//   - driver locations  {kDriver, driver_id, x, y}   key-grouped by driver
//   - passenger requests {kRequest, request_id, x, y} all-grouped (the
//     one-to-many stream under study)
// The matching operator stores its key-grouped driver slice and joins each
// broadcast request against it, emitting qualified matches (drivers within
// `radius_km`); aggregation keeps the best match per request.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "dsps/topology.h"

namespace whale::workloads {

// values[0] tags the record type on the shared matching input.
enum RideTupleTag : int64_t { kDriverUpdate = 0, kPassengerRequest = 1 };

struct RideHailingParams {
  int num_drivers = 20000;
  double city_km = 100.0;   // square city side
  double radius_km = 1.0;   // match radius

  // Modeled CPU costs of the user logic. The per-driver cost models the
  // spatial-index probe + distance checks over the locally stored slice,
  // so matching gets cheaper as parallelism spreads the drivers out —
  // the mechanism behind Whale's falling latency curve (Fig. 14). The
  // host join really is indexed (MatchingBolt's uniform grid), but the
  // modeled cost deliberately stays linear in the *expected* slice size
  // num_drivers / parallelism: it stands for the paper's per-instance
  // join cost, not for how fast this simulator finds the matches.
  Duration driver_update_cost = us(2);
  Duration match_fixed_cost = us(40);
  Duration match_per_driver_cost = us(1);
  Duration aggregation_cost = us(3);
};

class DriverLocationSpout : public dsps::Spout {
 public:
  explicit DriverLocationSpout(RideHailingParams p) : p_(p) {}
  dsps::Tuple next(Rng& rng) override;
  Duration emit_cost() const override { return us(2); }

 private:
  RideHailingParams p_;
};

class PassengerRequestSpout : public dsps::Spout {
 public:
  explicit PassengerRequestSpout(RideHailingParams p) : p_(p) {}
  dsps::Tuple next(Rng& rng) override;
  Duration emit_cost() const override { return us(2); }
  // Checkpoints the request counter so replayed runs resume numbering at
  // the committed source offset instead of re-issuing ids from zero.
  void register_state(whale::state::StateStore& store) override;

 private:
  RideHailingParams p_;
  int64_t next_request_ = 0;
};

// Fields-grouping ownership of the pre-loaded driver ids: splits 0..N-1
// into P ascending slices by value_hash(id) % P in one pass. An app
// shares one instance across all its MatchingBolts, so set-up hashes each
// id once instead of once per instance. Asking for a different
// (num_drivers, parallelism), as an elastic spawn does, recomputes.
class DriverSlices {
 public:
  const std::vector<int64_t>& slice(int num_drivers, int parallelism,
                                    int instance);

 private:
  int num_drivers_ = -1;
  int parallelism_ = 0;
  std::vector<std::vector<int64_t>> slices_;
};

// Joins the broadcast request stream against the locally stored driver
// slice. Emits {request_id, driver_id, distance_sq} per qualified match,
// in ascending driver-id order.
//
// The slice is a vector of slots sorted by driver id (id lookup is a
// binary search) with a uniform G x G grid over the city threaded through
// it: each cell heads a singly linked list of the slots inside it. Cells
// are at least one radius wide and hold about one driver each, so a
// request probes at most 3 x 3 cells (4 x 4 if a cell is exactly one
// radius wide) instead of the whole slice.
// Positions outside the city clamp into the edge cells.
class MatchingBolt : public dsps::Bolt {
 public:
  explicit MatchingBolt(
      RideHailingParams p,
      std::shared_ptr<DriverSlices> slices = std::make_shared<DriverSlices>())
      : p_(p), slices_(std::move(slices)) {}
  // Pre-loads the key-grouped driver slice this instance owns, so the join
  // cost reflects the steady state instead of an empty table.
  void prepare(const dsps::TaskContext& ctx) override;
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override;
  // Checkpoints the driver slice as a "__keyed." cell (key = the driver
  // id's fields-grouping hash), which is what makes this operator
  // elastically rescalable: the migration machinery merges the cells of
  // every old instance and re-splits them by key % new_parallelism —
  // exactly the ownership predicate prepare() and the driver stream's
  // fields grouping use.
  void register_state(whale::state::StateStore& store) override;
  // Elastic rescale cutover: the migrated keyed cell is already restored;
  // only the ownership shape (parallelism / instance index) changes, and
  // the grid is resized for the new expected slice.
  void rescaled(const dsps::TaskContext& ctx) override {
    ctx_ = ctx;
    index_slots();
  }

  size_t stored_drivers() const { return slots_.size(); }

 private:
  struct Slot {
    int64_t id;
    double x, y;
    int32_t cell;
    int32_t next;  // next slot in the same cell, -1 ends the list
  };
  struct Hit {
    int32_t slot;
    double d2;
  };
  int axis_cell(double v) const;
  int32_t cell_of(double x, double y) const;
  void upsert(int64_t id, double x, double y);
  // Sizes the grid for the current expected slice and relinks every slot.
  void index_slots();

  RideHailingParams p_;
  std::shared_ptr<DriverSlices> slices_;
  dsps::TaskContext ctx_;
  std::vector<Slot> slots_;     // sorted by id
  std::vector<int32_t> heads_;  // g_ * g_ cells, row-major, -1 = empty
  int g_ = 1;
  double cells_per_km_ = 0.0;
  std::vector<Hit> hits_;  // per-request scratch
};

// Sink: keeps the best (closest) driver per request.
class RideAggregationBolt : public dsps::Bolt {
 public:
  explicit RideAggregationBolt(RideHailingParams p) : p_(p) {}
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override;
  // Checkpoints the best-match table (request -> {driver, distance_sq}).
  void register_state(whale::state::StateStore& store) override;

  size_t decided() const { return best_.size(); }

 private:
  RideHailingParams p_;
  std::unordered_map<int64_t, std::pair<int64_t, double>> best_;
};

// Square-wave request-rate profile for the elastic benchmarks: starts at
// `lull_tps`, alternates to `burst_tps` and back every `half_period`, for
// `cycles` full cycles. Each burst drives the matching backlog over the
// scale-up threshold; each lull drains it under the scale-down one, so a
// single run exercises both rescale directions repeatedly.
inline dsps::RateProfile bursty_request_profile(double lull_tps,
                                                double burst_tps,
                                                Duration half_period,
                                                int cycles) {
  auto p = dsps::RateProfile::constant(lull_tps);
  for (int c = 0; c < cycles; ++c) {
    p.then_at(half_period * (2 * c + 1), burst_tps);
    p.then_at(half_period * (2 * c + 2), lull_tps);
  }
  return p;
}

}  // namespace whale::workloads
