// The benchmark's workloads: one engine configuration and topology builder
// per named workload, driven only through the public API (apps::build_*,
// core::EngineConfig, core::Engine).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "dsps/topology.h"

namespace perfbench {

struct Workload {
  std::string name;
  whale::core::EngineConfig cfg;  // cfg.seed carries --seed
  whale::Duration warmup = 0;
  whale::Duration window = 0;
  // Fixed input rate of the one-to-many (request/order) spout, tuples/s.
  double fixed_rate = 0;
  // Fixed-rate runs with independent seeds whose simulated samples are
  // pooled (sub-run 0 runs at cfg.seed itself).
  int sub_runs = 1;
  // Builds the topology with the one-to-many spout at `rate` tuples/s.
  std::function<whale::dsps::Topology(double rate)> build;
  // Operator whose output stream feeds the sink (for routing imbalance).
  int sink_op = -1;
  // The scripted crash/restart of the fixed-rate run; crash_at == 0 marks
  // a fault-free workload.
  whale::Time crash_at = 0;
  whale::Duration restart_after = 0;
  bool fault_free() const { return crash_at == 0; }
};

// Names accepted by make_workload(), in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Returns false if `name` is unknown.
bool make_workload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace perfbench
