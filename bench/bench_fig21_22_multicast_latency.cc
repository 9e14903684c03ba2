// Figures 21/22 — average multicast latency (tuple production until every
// destination instance has received it) vs parallelism, d* = 3.
//
// Paper at parallelism 480: Whale's non-blocking tree cuts average
// multicast latency by 54.4% vs binomial and 57.8% vs sequential on the
// Didi workload, and 50.6% / 56.6% on NASDAQ.
#include "bench/bench_util.h"

using namespace whale;
using namespace whale::bench;

int main() {
  header("Figs. 21/22 — average multicast latency vs parallelism (d*=3)",
         "non-blocking cuts avg multicast latency ~54%/58% vs "
         "binomial/sequential (ride-hailing), ~51%/57% (stock)");

  const core::SystemVariant variants[] = {
      core::SystemVariant::WhaleWocRdma(),
      core::SystemVariant::WhaleWocRdmaBinomial(),
      core::SystemVariant::Whale()};
  const char* names[] = {"sequential", "binomial", "non-blocking"};

  for (int app = 0; app < 2; ++app) {
    std::printf("\n[%s]\n", app == 0 ? "ride-hailing (Didi-like)"
                                     : "stock exchange (NASDAQ-like)");
    row({"parallelism", "structure", "mcast_latency_ms", "p99_ms"});
    for (int par : parallelism_sweep()) {
      for (int i = 0; i < 3; ++i) {
        core::EngineConfig cfg = paper_config(variants[i]);
        cfg.initial_dstar = 3;   // the paper pins d* = 3 here
        cfg.self_adjust = false;
        auto runner = [&](double rate) {
          return app == 0 ? run_ride(variants[i], par, rate, &cfg)
                          : run_stock(variants[i], par, rate, &cfg);
        };
        const auto r = run_at_sustainable_rate(runner);
        row({std::to_string(par), names[i],
             fmt_ms(r.mcast_latency_ms_avg()),
             fmt_ms(to_millis(r.multicast_latency.p99()))});
      }
    }
  }

  return 0;
}
