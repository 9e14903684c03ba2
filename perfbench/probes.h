// Measurement probes that sit outside the program under test:
//
//  - SpanRecorder: an in-memory span log with per-layer totals. Spans nest
//    on one thread (setup > workloads.prepare, run > workloads.execute /
//    workloads.next); a layer's self time is its spans' duration minus the
//    time its child spans cover. Totals count every call; the span log keeps
//    only the spans of sampled root ids.
//  - ProbedBolt / ProbedSpout: forwarding decorators over every virtual of
//    dsps::Bolt / dsps::Spout, installed by wrapping a topology's factories.
//    They change no behaviour (the benchmark self-test pins the run
//    fingerprint), only time the calls and count in-window emissions.
//  - a counting global operator new, and microtimings of TupleSerde,
//    MulticastTree::build_nonblocking and the sim::Simulation kernel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "dsps/topology.h"

namespace whale::sim {
class Simulation;
}

namespace perfbench {

int64_t host_now_ns();

class SpanRecorder {
 public:
  enum Layer : int { kSetup = 0, kPrepare, kRun, kExecute, kNext, kNumLayers };
  static const char* layer_name(int layer);

  struct Span {
    int layer;
    int parent;  // index into the log, -1 at top level or when unsampled
    uint64_t root_id;  // 0 when no root is known at the call
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Totals {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t child_ns = 0;  // covered by child spans
    int64_t self_ns() const { return total_ns - child_ns; }
  };

  explicit SpanRecorder(uint64_t sample_stride) : stride_(sample_stride) {}

  // Opens a span; spans close in reverse order of opening.
  void begin(int layer, uint64_t root_id);
  void end();

  const Totals& totals(int layer) const { return totals_[layer]; }
  const std::vector<Span>& log() const { return log_; }
  void clear_totals();

 private:
  bool sampled(int layer, uint64_t root_id);

  struct Open {
    int layer;
    int log_index;  // -1 when not logged
    int64_t start_ns;
    int64_t child_ns;
  };
  uint64_t stride_;
  uint64_t next_calls_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> log_;
  Totals totals_[kNumLayers];
};

// Shared by every decorator of one engine run. `sim` is filled in once the
// engine is constructed; spans are recorded only when `spans` is set.
struct ProbeContext {
  SpanRecorder* spans = nullptr;
  const whale::sim::Simulation* sim = nullptr;
  whale::Time window_start = 0;
  whale::Time window_end = 0;
  int counted_op = -1;          // spout operator whose emissions are counted
  uint64_t window_emissions = 0;  // its next() calls inside the window
};

// Replaces every factory of `topo` with one that wraps the original
// object. Bolts are wrapped only when `ctx.spans` is set; spouts always
// (they count the in-window emissions of ctx.counted_op).
void wrap_topology(whale::dsps::Topology& topo, ProbeContext* ctx);

// Operator new calls so far in this process.
uint64_t alloc_count();

// Peak resident set size of this process, MiB.
double peak_rss_mb();

// Quantile linearly interpolated inside the histogram bucket that holds
// it, in ms. LatencyHistogram::quantile() returns the bucket's upper edge,
// which moves in 1/16-octave steps.
double interp_quantile_ms(const whale::LatencyHistogram& h, double q);

struct SerdeTiming {
  double encode_ns = 0;  // per tuple, BatchTuple with 16 destination ids
  double decode_ns = 0;
  double body_bytes = 0;
};
// Times TupleSerde on `n` tuples drawn from each spout of `topo`.
SerdeTiming time_serde(const whale::dsps::Topology& topo, uint64_t seed,
                       int n);

// Median microseconds of MulticastTree::build_nonblocking(n, dstar).
double time_tree_build_us(int n, int dstar);

// Median host ns per event of a fixed self-rescheduling event loop through
// sim::Simulation::schedule_after / run.
double time_kernel_ns_per_event();

}  // namespace perfbench
