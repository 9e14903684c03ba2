#include "workloads.h"

#include <algorithm>

#include "apps/ride_hailing_app.h"
#include "apps/stock_app.h"

namespace perfbench {

using namespace whale;

namespace {

core::EngineConfig base_config(core::SystemVariant v, int nodes,
                               uint64_t seed) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = nodes;
  cfg.cluster.cores_per_node = 16;
  cfg.variant = v;
  cfg.seed = seed;
  // 10 ms throughput bins: the resolution of the recovery metric.
  cfg.timeseries_bin = ms(10);
  return cfg;
}

apps::RideHailingAppParams ride_params(int matching, int aggregation,
                                       int driver_spouts, int drivers,
                                       double request_tps,
                                       double driver_tps) {
  apps::RideHailingAppParams p;
  p.matching_parallelism = matching;
  p.aggregation_parallelism = aggregation;
  p.driver_spout_parallelism = driver_spouts;
  p.workload.num_drivers = drivers;
  p.request_rate = dsps::RateProfile::constant(request_tps);
  p.driver_rate = dsps::RateProfile::constant(driver_tps);
  return p;
}

// The paper's headline path: full Whale (WOC, optimized RDMA with stream
// slicing, self-adjusting non-blocking tree) at parallelism 480.
void ride_whale480(Workload& w) {
  w.cfg = base_config(core::SystemVariant::Whale(), 30, w.cfg.seed);
  w.warmup = ms(150);
  w.window = ms(300);
  w.fixed_rate = 8000;
  w.sub_runs = 3;
  w.build = [](double rate) {
    return apps::build_ride_hailing(
               ride_params(480, 8, 2, 20000, rate, 4000))
        .topology;
  };
  w.sink_op = apps::build_ride_hailing(ride_params(4, 1, 1, 4, 1, 1)).sink_op;
}

// The fig-cluster300 shape (300 nodes, matching 360, 16 driver spouts):
// application-bound, MatchingBolt dominates run and set-up time. 100k
// drivers rather than the 300k of scale 0.3: the 300k driver slices
// outgrow the cache a shared host leaves to one process, and their run
// time swung 2x with neighbouring load where 100k moved about 15 %.
void cluster300(Workload& w) {
  w.cfg = base_config(core::SystemVariant::WhaleWoc(), 300, w.cfg.seed);
  w.warmup = ms(150);
  w.window = ms(2000);
  w.fixed_rate = 250;
  w.sub_runs = 8;
  w.build = [](double rate) {
    return apps::build_ride_hailing(
               ride_params(360, 64, 16, 100000, rate, 3000))
        .topology;
  };
  w.sink_op = apps::build_ride_hailing(ride_params(4, 1, 1, 4, 1, 1)).sink_op;
}

// Stock exchange with exactly-once checkpointing onto remote state and a
// mid-window crash/restart of node 7.
void stock_exactly_once(Workload& w) {
  w.cfg = base_config(core::SystemVariant::Whale(), 30, w.cfg.seed);
  w.cfg.state.enabled = true;
  w.cfg.state.checkpoint_interval = ms(50);
  w.cfg.state.remote = true;
  w.cfg.state.incremental = true;
  w.warmup = ms(150);
  // A long window keeps the ~300 ms post-restart catch-up to about a
  // quarter of the latency samples: p50 measures steady state, p99 the
  // recovery tail.
  w.window = ms(1600);
  w.fixed_rate = 4000;
  w.sub_runs = 2;
  auto params = [](double rate) {
    apps::StockAppParams p;
    p.matching_parallelism = 240;
    p.aggregation_parallelism = 8;
    p.workload.zipf_exponent = 1.1;
    p.aggregation_grouping = dsps::Grouping::kPartialKey;
    p.order_rate = dsps::RateProfile::constant(rate);
    return p;
  };
  w.build = [params](double rate) {
    return apps::build_stock_exchange(params(rate)).topology;
  };
  w.sink_op = apps::build_stock_exchange(params(1)).sink_op;
  w.crash_at = w.warmup + w.window / 2;
  w.restart_after = ms(100);
  w.cfg.faults.crash(/*node=*/7, w.crash_at, w.restart_after);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ride-whale480", "cluster300", "stock-exactly-once"};
  return names;
}

bool make_workload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.cfg.seed = seed;
  if (name == "ride-whale480") {
    ride_whale480(w);
  } else if (name == "cluster300") {
    cluster300(w);
  } else if (name == "stock-exactly-once") {
    stock_exactly_once(w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
