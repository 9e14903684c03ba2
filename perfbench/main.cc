// Benchmark program: runs one workload on the serial kernel and prints one
// JSON object (metrics, sample counts, checks, host facts) on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Host timing repeats the fixed-rate run of sub-seed 0 (cfg.seed = --seed)
// until --seconds is used up, at least twice so its fingerprint is checked
// against a repetition; run_s is the mean of the fastest third of the
// repetitions and setup_s the median.
// Simulated metrics pool that run with one run of each further sub-seed and
// are exact functions of the seed; the saturating capacity probe runs last.
// --trace 1 splits the time between undecorated repetitions and repetitions
// with every bolt and spout wrapped in timing decorators, and reports the
// per-layer metrics instead of the end-to-end ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "multicast/queue_model.h"
#include "probes.h"
#include "workloads.h"

using namespace whale;
using namespace perfbench;

namespace {

// Saturating capacity probe: input rate and measurement window.
constexpr double kProbeRate = 200000;
constexpr Duration kProbeWindow = ms(200);
// Seed distance between the pooled sub-runs.
constexpr uint64_t kSubSeedStep = 1'000'003;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20;
  int trace = 0;
  std::string spans_file;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end || !(a->seconds > 0 && a->seconds <= 120)) return false;
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
      if (a->trace != 0 && a->trace != 1) return false;
    } else if (k == "--spans") {
      a->spans_file = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double seconds_since(int64_t t0) {
  return static_cast<double>(host_now_ns() - t0) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The first spout that feeds an all-grouped stream (the request/order
// source); its in-window emissions are the offered one-to-many load.
int offered_op(const dsps::Topology& topo) {
  for (const auto& s : topo.streams) {
    if (s.grouping == dsps::Grouping::kAll &&
        topo.ops[static_cast<size_t>(s.from_op)].is_spout) {
      return s.from_op;
    }
  }
  for (size_t i = 0; i < topo.ops.size(); ++i) {
    if (topo.ops[i].is_spout) return static_cast<int>(i);
  }
  return -1;
}

// bench_checkpoint_recovery's definition: ms from the crash until the first
// throughput bin back at `frac` of the pre-crash average; -1 if never.
double recovery_ms(const core::RunReport& r, Duration warmup, Duration crash,
                   Duration bin, double frac) {
  const auto& s = r.tput_series;
  const size_t crash_bin = static_cast<size_t>(crash / bin);
  const size_t first_bin = static_cast<size_t>(warmup / bin);
  double pre = 0;
  size_t n = 0;
  for (size_t i = first_bin; i < crash_bin && i < s.num_bins(); ++i) {
    pre += s.bin_rate(i);
    ++n;
  }
  if (n == 0 || pre <= 0) return -1;
  pre /= static_cast<double>(n);
  for (size_t i = crash_bin; i < s.num_bins(); ++i) {
    if (s.bin_rate(i) >= frac * pre) {
      return to_millis(static_cast<Time>(i - crash_bin) * bin);
    }
  }
  return -1;
}

// One fixed-rate sub-run: set-up (topology build + Engine construction,
// which calls every prepare) and Engine::run, timed separately.
struct SubRun {
  core::RunReport report;
  double setup_s = 0;
  double run_s = 0;
  uint64_t allocs = 0;          // operator new calls during Engine::run
  uint64_t offered = 0;         // in-window emissions of the offered spout
  uint64_t last_committed = 0;  // checkpoint epoch, 0 without state
  uint64_t fp = 0;
  // Traced repetitions only: per-layer totals of this run.
  SpanRecorder::Totals layers[SpanRecorder::kNumLayers];
};

enum class Probing { kPlain, kCounting, kTraced };

SubRun run_once(const Workload& w, int k, double rate, Duration window,
                Probing probing, SpanRecorder* spans) {
  core::EngineConfig cfg = w.cfg;
  cfg.seed = w.cfg.seed + static_cast<uint64_t>(k) * kSubSeedStep;
  ProbeContext ctx;
  ctx.window_start = w.warmup;
  ctx.window_end = w.warmup + window;
  if (probing == Probing::kTraced) ctx.spans = spans;

  SubRun out;
  const int64_t t0 = host_now_ns();
  if (ctx.spans) ctx.spans->begin(SpanRecorder::kSetup, 0);
  dsps::Topology topo = w.build(rate);
  if (probing != Probing::kPlain) {
    ctx.counted_op = offered_op(topo);
    wrap_topology(topo, &ctx);
  }
  core::Engine engine(cfg, std::move(topo));
  if (ctx.spans) ctx.spans->end();
  const int64_t t1 = host_now_ns();
  ctx.sim = &engine.simulation();
  const uint64_t a0 = alloc_count();
  if (ctx.spans) ctx.spans->begin(SpanRecorder::kRun, 0);
  out.report = engine.run(w.warmup, window);
  if (ctx.spans) ctx.spans->end();
  const int64_t t2 = host_now_ns();
  out.allocs = alloc_count() - a0;
  out.setup_s = static_cast<double>(t1 - t0) / 1e9;
  out.run_s = static_cast<double>(t2 - t1) / 1e9;
  out.offered = ctx.window_emissions;
  if (cfg.state.enabled) {
    out.last_committed = engine.checkpoints().last_committed();
  }
  out.fp = fnv1a(out.report.fingerprint());
  return out;
}

// Repeats the fixed-rate run of sub-seed 0 until `budget_s` has elapsed
// since `t0`, never fewer than `min_reps` times, and stops early if the next
// repetition would overrun the budget. Traced repetitions keep their own
// per-layer totals.
std::vector<SubRun> repeat_runs(const Workload& w, Probing probing,
                                SpanRecorder* spans, int64_t t0,
                                double budget_s, int min_reps) {
  std::vector<SubRun> reps;
  double longest = 0;
  for (;;) {
    const int64_t r0 = host_now_ns();
    if (spans) spans->clear_totals();
    reps.push_back(run_once(w, 0, w.fixed_rate, w.window, probing, spans));
    if (spans) {
      for (int l = 0; l < SpanRecorder::kNumLayers; ++l) {
        reps.back().layers[l] = spans->totals(l);
      }
    }
    longest = std::max(longest, seconds_since(r0));
    if (static_cast<int>(reps.size()) >= min_reps &&
        seconds_since(t0) + longest > budget_s) {
      break;
    }
    if (reps.size() >= 500) break;
  }
  return reps;
}

// Mean of the fastest third of `v` (at least one value). Host noise on a
// shared machine only adds time to a deterministic run and comes in bursts
// that last for several repetitions; the fast third tracks the code's own
// cost, and averaging three or more damps a single lucky repetition.
double fast_third_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = std::max<size_t>(1, v.size() / 3);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

// The repetition with the median run time.
const SubRun& median_rep(const std::vector<SubRun>& reps) {
  std::vector<const SubRun*> v;
  for (const auto& r : reps) v.push_back(&r);
  std::sort(v.begin(), v.end(), [](const SubRun* a, const SubRun* b) {
    return a->run_s < b->run_s;
  });
  return *v[(v.size() - 1) / 2];
}

class JsonOut {
 public:
  void key(const std::string& k) {
    sep();
    s_ += '"' + k + "\":";
    first_ = true;
  }
  void open() { sep(); s_ += '{'; first_ = true; }
  void close() { s_ += '}'; first_ = false; }
  void num(const std::string& k, double v) {
    key(k);
    char buf[64];
    if (!std::isfinite(v)) v = -1;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s_ += buf;
    first_ = false;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    s_ += '"' + v + '"';
    first_ = false;
  }
  void boolean(const std::string& k, bool v) {
    key(k);
    s_ += v ? "true" : "false";
    first_ = false;
  }
  void list(const std::string& k, const std::vector<double>& v) {
    key(k);
    s_ += '[';
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", v[i]);
      s_ += buf;
    }
    s_ += ']';
    first_ = false;
  }
  void metric(const std::string& k, double v, const char* unit) {
    key(k);
    open();
    num("value", v);
    str("unit", unit);
    close();
  }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!first_) s_ += ',';
    first_ = false;
  }
  std::string s_;
  bool first_ = true;
};

void write_spans(const std::string& path, const SpanRecorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write span log %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"spans\": [\n");
  const auto& log = rec.log();
  const int64_t base = log.empty() ? 0 : log.front().start_ns;
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& s = log[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"root_id\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i ? "," : "", i, SpanRecorder::layer_name(s.layer), s.parent,
                 static_cast<unsigned long long>(s.root_id),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t t_start = host_now_ns();
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  Workload w;
  if (!make_workload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  SpanRecorder spans(/*sample_stride=*/64);
  std::vector<SubRun> plain, traced;
  if (args.trace == 0) {
    plain = repeat_runs(w, Probing::kCounting, nullptr, t_start, args.seconds,
                        2);
  } else {
    const double half = seconds_since(t_start) +
                        0.5 * std::max(0.0, args.seconds -
                                                seconds_since(t_start));
    plain = repeat_runs(w, Probing::kPlain, nullptr, t_start, half, 1);
    traced = repeat_runs(w, Probing::kTraced, &spans, t_start, args.seconds,
                         2);
  }
  // Peak RSS of the timed fixed-rate runs, before the pooled runs and the
  // saturating probe below grow the heap.
  const double rss_mb = peak_rss_mb();

  // Simulated metrics pool sub-seed 0 with one run of each further
  // sub-seed. These and the probe run after the timed repetitions, so
  // their heap use does not shape the heap those run on.
  std::vector<SubRun> pooled{plain.front()};
  if (args.trace == 1) pooled.front().offered = traced.front().offered;
  for (int k = 1; k < w.sub_runs; ++k) {
    pooled.push_back(
        run_once(w, k, w.fixed_rate, w.window, Probing::kCounting, nullptr));
  }
  // Saturating capacity probe (run_at_sustainable_rate's probe): one-to-many
  // roots delivered per simulated second at an input rate far above
  // capacity. Deterministic in the seed; not host-timed.
  const SubRun probe =
      run_once(w, 0, kProbeRate, kProbeWindow, Probing::kPlain, nullptr);

  // --- checks ---------------------------------------------------------------
  std::map<std::string, bool> checks;
  auto all_equal = [](const std::vector<SubRun>& reps) {
    for (const auto& r : reps) {
      if (r.fp != reps.front().fp) return false;
    }
    return true;
  };
  checks["fingerprint_repeats"] = all_equal(plain) && all_equal(traced);
  if (args.trace == 1) {
    // Self-test: the decorators are inert.
    checks["wrapped_fingerprint_identical"] =
        traced.front().fp == plain.front().fp;
  }

  LatencyHistogram proc, mcast, comm;
  uint64_t attempted = 0, failed = 0, delivered = 0, offered = 0;
  double wire_bytes = 0, recovery_sum = 0;
  bool recovered = true, committed_after_restart = true;
  for (const auto& run : pooled) {
    const auto& r = run.report;
    proc.merge(r.processing_latency);
    mcast.merge(r.multicast_latency);
    comm.merge(r.comm_time);
    attempted += r.roots_emitted;  // includes the roots dropped at input
    failed += r.input_drops + r.queue_rejects + r.failed_roots;
    delivered += r.mcast_roots;
    offered += run.offered;
    wire_bytes += static_cast<double>(r.bytes_tcp + r.bytes_rdma);
    if (!w.fault_free()) {
      const double rec =
          recovery_ms(r, w.warmup, w.crash_at, w.cfg.timeseries_bin, 0.8);
      recovery_sum += rec;
      recovered = recovered && r.checkpoint_recoveries == 1 && rec >= 0;
      // Epochs are injected every checkpoint_interval from t = 0, so epoch e
      // began no earlier than e * interval.
      committed_after_restart =
          committed_after_restart &&
          static_cast<Time>(run.last_committed) *
                  w.cfg.state.checkpoint_interval >
              w.crash_at + w.restart_after;
    }
  }
  const double n_runs = static_cast<double>(pooled.size());
  if (w.fault_free()) {
    checks["no_failures"] = failed == 0;
    checks["delivered_95pct"] =
        offered > 0 && static_cast<double>(delivered) >=
                           0.95 * static_cast<double>(offered);
  } else {
    checks["one_checkpoint_recovery"] = recovered;
    checks["commits_after_restart"] = committed_after_restart;
  }
  bool correct = true;
  for (const auto& [name, ok] : checks) correct = correct && ok;

  std::vector<double> run_s, setup_s;
  for (const auto& r : plain) {
    run_s.push_back(r.run_s);
    setup_s.push_back(r.setup_s);
  }

  JsonOut j;
  j.open();
  j.str("workload", w.name);
  j.num("seed", static_cast<double>(args.seed));
  j.num("trace", args.trace);
  j.key("host");
  j.open();
  j.num("nproc", std::thread::hardware_concurrency());
  j.str("build_type", WHALE_BENCH_BUILD_TYPE);
  j.str("compiler", WHALE_BENCH_COMPILER);
  j.close();
  j.num("reps", static_cast<double>(plain.size()));
  j.num("traced_reps", static_cast<double>(traced.size()));
  j.num("sub_runs", w.sub_runs);
  j.key("fingerprints");
  j.open();
  for (size_t k = 0; k < pooled.size(); ++k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(pooled[k].fp));
    j.str("sub_seed_" + std::to_string(k), buf);
  }
  j.close();
  j.key("checks");
  j.open();
  for (const auto& [name, ok] : checks) j.boolean(name, ok);
  j.close();
  j.key("samples");
  j.open();
  j.num("sim_proc", static_cast<double>(proc.count()));
  j.num("sim_mcast", static_cast<double>(mcast.count()));
  j.num("run_s", static_cast<double>(run_s.size()));
  j.num("setup_s", static_cast<double>(setup_s.size()));
  j.close();
  j.list("rep_run_s", run_s);
  j.list("rep_setup_s", setup_s);
  j.boolean("correct", correct);
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.key("metrics");
  j.open();
  if (args.trace == 0) {
    j.metric("run_s", fast_third_mean(run_s), "s");
    j.metric("setup_s", median(setup_s), "s");
    j.metric("peak_rss_mb", rss_mb, "MiB");
    j.metric("sim_capacity_tps", probe.report.mcast_throughput_tps, "1/s");
    j.metric("sim_proc_p50_ms", interp_quantile_ms(proc, 0.50), "ms");
    j.metric("sim_proc_p99_ms", interp_quantile_ms(proc, 0.99), "ms");
    j.metric("sim_mcast_p50_ms", interp_quantile_ms(mcast, 0.50), "ms");
    j.metric("sim_mcast_p99_ms", interp_quantile_ms(mcast, 0.99), "ms");
    j.metric("sim_wire_bytes_per_root",
             delivered ? wire_bytes / static_cast<double>(delivered) : 0.0,
             "bytes");
    j.metric("success_frac",
             attempted ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0.0,
             "ratio");
  } else {
    const SubRun& tp = median_rep(traced);
    using L = SpanRecorder;
    auto secs = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
    const double exec_s = secs(tp.layers[L::kExecute].total_ns);
    const double next_s = secs(tp.layers[L::kNext].total_ns);
    const double traced_run_s = secs(tp.layers[L::kRun].total_ns);
    const double core_self_s = secs(tp.layers[L::kRun].self_ns());
    const uint64_t events = plain.front().report.sim_events;
    const uint64_t allocs = plain.front().allocs;
    const double ev = static_cast<double>(std::max<uint64_t>(events, 1));
    j.metric("trace.run_s", traced_run_s, "s");
    j.metric("trace.untraced_run_s", median(run_s), "s");
    j.metric("trace.overhead_s", traced_run_s - median(run_s), "s");
    j.metric("workloads.exec_s", exec_s, "s");
    j.metric("workloads.exec_calls",
             static_cast<double>(tp.layers[L::kExecute].calls), "count");
    j.metric("workloads.next_s", next_s, "s");
    j.metric("workloads.prepare_s", secs(tp.layers[L::kPrepare].total_ns),
             "s");
    j.metric("workloads.setup_self_s", secs(tp.layers[L::kSetup].self_ns()),
             "s");
    j.metric("core.self_s", core_self_s, "s");
    j.metric("core.self_ns_per_event", core_self_s * 1e9 / ev, "ns/event");
    j.metric("sim.events", static_cast<double>(events), "count");
    j.metric("sim.allocs_per_event", static_cast<double>(allocs) / ev,
             "allocs/event");
    j.metric("sim.kernel_ns_per_event", time_kernel_ns_per_event(),
             "ns/event");
    const SerdeTiming serde =
        time_serde(w.build(w.fixed_rate), args.seed, 2000);
    j.metric("dsps.encode_ns", serde.encode_ns, "ns");
    j.metric("dsps.decode_ns", serde.decode_ns, "ns");
    j.metric("dsps.body_bytes", serde.body_bytes, "bytes");

    // Report fields, averaged over the pooled runs.
    auto avg = [&](auto field) {
      double s = 0;
      for (const auto& r : pooled) s += field(r.report);
      return s / n_runs;
    };
    const dsps::Topology shape = w.build(w.fixed_rate);
    j.metric("dsps.agg_imbalance", avg([&](const core::RunReport& r) {
               for (const auto& sr : r.stream_routing) {
                 if (shape.streams[static_cast<size_t>(sr.stream)].to_op ==
                     w.sink_op) {
                   return sr.imbalance;
                 }
               }
               return 0.0;
             }),
             "ratio");
    int fanout = 0;
    for (const auto& s : shape.streams) {
      if (s.grouping == dsps::Grouping::kAll) {
        fanout = shape.ops[static_cast<size_t>(s.to_op)].parallelism;
        break;
      }
    }
    const int final_dstar = pooled.front().report.final_dstar;
    const int build_dstar =
        final_dstar > 0
            ? final_dstar
            : std::max(1, multicast::MD1::binomial_out_degree(fanout));
    j.metric("multicast.build_us", time_tree_build_us(fanout, build_dstar),
             "us");
    j.metric("multicast.final_dstar", avg([](const core::RunReport& r) {
               return double(r.final_dstar);
             }),
             "count");
    j.metric("multicast.switches", avg([](const core::RunReport& r) {
               return double(r.switches_completed);
             }),
             "count");
    j.metric("multicast.switch_ms", avg([](const core::RunReport& r) {
               return to_millis(r.switch_time_total);
             }),
             "ms");
    static const char* kCpu[] = {"serialization", "protocol", "rdma_post",
                                 "app_logic", "dispatch", "other"};
    for (size_t c = 0; c < 6; ++c) {
      j.metric(std::string("core.src_cpu.") + kCpu[c] + "_s",
               avg([c](const core::RunReport& r) {
                 return r.src_cpu_seconds[c];
               }),
               "s");
    }
    j.metric("core.src_util",
             avg([](const core::RunReport& r) { return r.src_utilization; }),
             "ratio");
    j.metric("core.dst_util", avg([](const core::RunReport& r) {
               return r.downstream_utilization_avg;
             }),
             "ratio");
    j.metric("core.tq_avg", avg([](const core::RunReport& r) {
               return r.transfer_queue_avg;
             }),
             "count");
    j.metric("core.tq_max", avg([](const core::RunReport& r) {
               return double(r.transfer_queue_max);
             }),
             "count");
    j.metric("core.comm_p50_ms", interp_quantile_ms(comm, 0.50), "ms");
    j.metric("core.ser_ratio",
             avg([](const core::RunReport& r) { return r.ser_ratio; }),
             "ratio");
    j.metric("rdma.bytes",
             avg([](const core::RunReport& r) { return double(r.bytes_rdma); }),
             "bytes");
    j.metric("net.tcp_bytes",
             avg([](const core::RunReport& r) { return double(r.bytes_tcp); }),
             "bytes");
    j.metric("net.src_node_bytes", avg([](const core::RunReport& r) {
               return double(r.src_node_bytes);
             }),
             "bytes");
    j.metric("state.epochs", avg([](const core::RunReport& r) {
               return double(r.epochs_completed);
             }),
             "count");
    j.metric("state.aborted", avg([](const core::RunReport& r) {
               return double(r.epochs_aborted);
             }),
             "count");
    j.metric("state.write_bytes", avg([](const core::RunReport& r) {
               return double(r.remote_write_bytes);
             }),
             "bytes");
    j.metric("state.read_bytes", avg([](const core::RunReport& r) {
               return double(r.remote_read_bytes);
             }),
             "bytes");
    j.metric("state.align_stall_ms", avg([](const core::RunReport& r) {
               return to_millis(r.align_stall_total);
             }),
             "ms");
    j.metric("state.epoch_ms", avg([](const core::RunReport& r) {
               return to_millis(r.epoch_duration_avg);
             }),
             "ms");
    j.metric("state.replays", avg([](const core::RunReport& r) {
               return double(r.checkpoint_replays);
             }),
             "count");
    j.metric("faults.tuples_lost", avg([](const core::RunReport& r) {
               return double(r.tuples_lost);
             }),
             "count");
    j.metric("faults.downtime_ms", avg([](const core::RunReport& r) {
               return to_millis(r.downtime_total);
             }),
             "ms");
    j.metric("faults.recoveries", avg([](const core::RunReport& r) {
               return double(r.checkpoint_recoveries);
             }),
             "count");
    j.metric("faults.recovery_ms", w.fault_free() ? 0.0 : recovery_sum / n_runs,
             "ms");
  }
  j.close();
  j.close();
  std::printf("%s\n", j.text().c_str());
  if (args.trace == 1 && !args.spans_file.empty()) {
    write_spans(args.spans_file, spans);
  }
  return correct ? 0 : 1;
}
