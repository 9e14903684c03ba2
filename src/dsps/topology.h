// Topology model: the DAG of operators the user programs against.
//
// Mirrors Storm's API shape: spouts produce root tuples, bolts consume and
// emit, streams connect operators with a partitioning strategy (grouping).
// Application logic runs for real (joins really join); the *time* an
// execution takes is returned by the bolt as a modeled duration, which the
// engine charges to the executor's CPU server.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "dsps/tuple.h"

namespace whale::state {
class StateStore;  // state/state_store.h; kept out of dsps' dependencies
}

namespace whale::dsps {

// Stream partitioning strategies. The first four are Sec. 1/2 of the
// paper; the last two are skew-adaptive extensions (DESIGN.md §11), each
// backed by a PartitioningStrategy implementation in dsps/partitioning.h.
enum class Grouping : uint8_t {
  kShuffle = 0,       // round-robin across downstream instances
  kFields,            // hash of a key field -> one instance (key grouping)
  kAll,               // one-to-many: every downstream instance (paper focus)
  kGlobal,            // always instance 0
  kPartialKey,        // PKG: two hash candidates per key, less-loaded wins
  kLoadAwareShuffle,  // po2c: two random candidates, lighter queue wins
};

inline const char* to_string(Grouping g) {
  switch (g) {
    case Grouping::kShuffle: return "shuffle";
    case Grouping::kFields: return "fields";
    case Grouping::kAll: return "all";
    case Grouping::kGlobal: return "global";
    case Grouping::kPartialKey: return "partial_key";
    case Grouping::kLoadAwareShuffle: return "po2c";
  }
  return "unknown";
}

// Deterministic hash of a tuple field for fields grouping.
uint64_t value_hash(const Value& v);

struct TaskContext {
  int task_id = 0;         // globally unique task id
  int op = 0;              // operator index
  int instance_index = 0;  // index within the operator [0, parallelism)
  int parallelism = 1;
  int worker = 0;          // hosting worker process
  int node = 0;            // hosting machine
};

// Collects a bolt's emissions during execute(); the engine routes them
// afterwards. `out_idx` selects among the operator's outgoing streams.
// Slab-backed like Tuple::values: one emissions vector is built per
// execute() call, so recycling its storage keeps the bolt hot path off
// the global allocator.
using Emissions =
    std::vector<std::pair<size_t, Tuple>, SlabAllocator<std::pair<size_t, Tuple>>>;

class Emitter {
 public:
  void emit(Tuple t, size_t out_idx = 0) {
    emissions_.emplace_back(out_idx, std::move(t));
  }

  Emissions& take() { return emissions_; }

 private:
  Emissions emissions_;
};

class Bolt {
 public:
  virtual ~Bolt() = default;
  virtual void prepare(const TaskContext&) {}
  // Processes one tuple; returns the modeled CPU time of the user logic.
  virtual Duration execute(const Tuple& t, Emitter& out) = 0;
  // Registers checkpointable state cells (called once after prepare()).
  // Stateless operators keep the default no-op; they still participate in
  // epochs with empty snapshots.
  virtual void register_state(whale::state::StateStore&) {}
  // Called on surviving instances after an elastic rescale of this
  // operator (DESIGN.md §14): ctx carries the new parallelism (and, for
  // freshly spawned instances, the new instance index). Keyed operators
  // recompute their ownership predicate from it; the migrated "__keyed.*"
  // cells have already been restored when this runs.
  virtual void rescaled(const TaskContext&) {}
};

class Spout {
 public:
  virtual ~Spout() = default;
  virtual void prepare(const TaskContext&) {}
  // Produces the next root tuple (called once per arrival event). The
  // engine passes this spout *instance's* own deterministically seeded
  // RNG — instances never share a stream.
  virtual Tuple next(Rng& rng) = 0;
  // Modeled CPU time to produce one tuple (reading from the source queue).
  virtual Duration emit_cost() const { return us(2); }
  // Registers checkpointable state cells (called once after prepare()).
  virtual void register_state(whale::state::StateStore&) {}
};

using BoltFactory = std::function<std::unique_ptr<Bolt>()>;
using SpoutFactory = std::function<std::unique_ptr<Spout>()>;

// Piecewise-constant input rate for a spout operator (tuples/s across all
// its instances). Steps are (start_time, rate) pairs sorted by time.
struct RateProfile {
  std::vector<std::pair<Time, double>> steps{{0, 0.0}};

  static RateProfile constant(double tps) { return RateProfile{{{0, tps}}}; }

  RateProfile& then_at(Time t, double tps) {
    assert(steps.empty() || t >= steps.back().first);
    steps.emplace_back(t, tps);
    return *this;
  }

  double rate_at(Time t) const {
    double r = 0.0;
    for (const auto& [start, tps] : steps) {
      if (start > t) break;
      r = tps;
    }
    return r;
  }
};

struct OperatorSpec {
  std::string name;
  int parallelism = 1;
  bool is_spout = false;
  SpoutFactory spout_factory;
  BoltFactory bolt_factory;
  RateProfile rate;                // spouts only
  std::vector<int> out_streams;    // StreamSpec ids leaving this operator
  std::vector<int> in_streams;     // StreamSpec ids entering this operator
};

struct StreamSpec {
  int id = 0;
  int from_op = 0;
  int to_op = 0;
  Grouping grouping = Grouping::kShuffle;
  size_t key_field = 0;  // fields grouping: which tuple field is the key
};

struct Topology {
  std::vector<OperatorSpec> ops;
  std::vector<StreamSpec> streams;

  int num_tasks() const {
    int n = 0;
    for (const auto& op : ops) n += op.parallelism;
    return n;
  }
};

class TopologyBuilder {
 public:
  int add_spout(std::string name, SpoutFactory f, int parallelism,
                RateProfile rate);
  int add_bolt(std::string name, BoltFactory f, int parallelism);
  // Connects from_op -> to_op; returns the stream id. `out_idx` order on
  // the from-operator follows call order.
  int connect(int from_op, int to_op, Grouping g, size_t key_field = 0);
  Topology build() { return std::move(topo_); }

 private:
  Topology topo_;
};

}  // namespace whale::dsps
