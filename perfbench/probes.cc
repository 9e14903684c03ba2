#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/rng.h"
#include "dsps/serde.h"
#include "multicast/tree.h"
#include "sim/simulation.h"

// --- counting allocator -----------------------------------------------------
// Every allocation of the benchmark binary goes through here. Relaxed
// atomics: the serial kernel allocates from one thread, but the count stays
// well defined if a library thread allocates too.

namespace {
std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace whale;

int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans ------------------------------------------------------------------

const char* SpanRecorder::layer_name(int layer) {
  switch (layer) {
    case kSetup: return "setup";
    case kPrepare: return "workloads.prepare";
    case kRun: return "run";
    case kExecute: return "workloads.execute";
    case kNext: return "workloads.next";
  }
  return "unknown";
}

// Cap on the in-memory span log; totals keep counting past it.
constexpr size_t kMaxLoggedSpans = 1 << 20;

bool SpanRecorder::sampled(int layer, uint64_t root_id) {
  if (log_.size() >= kMaxLoggedSpans) return false;
  if (layer == kSetup || layer == kRun) return true;
  // The engine numbers a root only after Spout::next returns, so next()
  // spans carry no root id and are sampled by call count instead.
  if (layer == kNext) return next_calls_++ % stride_ == 0;
  if (root_id == 0) return true;  // prepare: once per task
  return root_id % stride_ == 0;
}

void SpanRecorder::begin(int layer, uint64_t root_id) {
  int index = -1;
  if (sampled(layer, root_id)) {
    index = static_cast<int>(log_.size());
    const int parent = stack_.empty() ? -1 : stack_.back().log_index;
    log_.push_back(Span{layer, parent, root_id, 0, 0});
  }
  stack_.push_back(Open{layer, index, host_now_ns(), 0});
  if (index >= 0) log_[static_cast<size_t>(index)].start_ns =
      stack_.back().start_ns;
}

void SpanRecorder::end() {
  const int64_t now = host_now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - o.start_ns;
  Totals& t = totals_[o.layer];
  ++t.calls;
  t.total_ns += dur;
  t.child_ns += o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.log_index >= 0) log_[static_cast<size_t>(o.log_index)].end_ns = now;
}

void SpanRecorder::clear_totals() {
  for (auto& t : totals_) t = Totals{};
}

// --- decorators -------------------------------------------------------------

namespace {

class SpanGuard {
 public:
  SpanGuard(SpanRecorder* r, int layer, uint64_t root_id) : r_(r) {
    if (r_) r_->begin(layer, root_id);
  }
  ~SpanGuard() {
    if (r_) r_->end();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanRecorder* r_;
};

class ProbedBolt final : public dsps::Bolt {
 public:
  ProbedBolt(std::unique_ptr<dsps::Bolt> inner, ProbeContext* ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  void prepare(const dsps::TaskContext& c) override {
    SpanGuard g(ctx_->spans, SpanRecorder::kPrepare, 0);
    inner_->prepare(c);
  }
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    SpanGuard g(ctx_->spans, SpanRecorder::kExecute, t.root_id);
    return inner_->execute(t, out);
  }
  void register_state(whale::state::StateStore& s) override {
    inner_->register_state(s);
  }
  void rescaled(const dsps::TaskContext& c) override { inner_->rescaled(c); }

 private:
  std::unique_ptr<dsps::Bolt> inner_;
  ProbeContext* ctx_;
};

class ProbedSpout final : public dsps::Spout {
 public:
  ProbedSpout(std::unique_ptr<dsps::Spout> inner, ProbeContext* ctx,
              bool counted)
      : inner_(std::move(inner)), ctx_(ctx), counted_(counted) {}

  void prepare(const dsps::TaskContext& c) override {
    SpanGuard g(ctx_->spans, SpanRecorder::kPrepare, 0);
    inner_->prepare(c);
  }
  dsps::Tuple next(Rng& rng) override {
    if (counted_ && ctx_->sim) {
      const Time now = ctx_->sim->now();
      if (now >= ctx_->window_start && now < ctx_->window_end) {
        ++ctx_->window_emissions;
      }
    }
    SpanGuard g(ctx_->spans, SpanRecorder::kNext, 0);
    return inner_->next(rng);
  }
  Duration emit_cost() const override { return inner_->emit_cost(); }
  void register_state(whale::state::StateStore& s) override {
    inner_->register_state(s);
  }

 private:
  std::unique_ptr<dsps::Spout> inner_;
  ProbeContext* ctx_;
  bool counted_;
};

}  // namespace

void wrap_topology(dsps::Topology& topo, ProbeContext* ctx) {
  for (size_t i = 0; i < topo.ops.size(); ++i) {
    auto& op = topo.ops[i];
    if (op.is_spout) {
      const bool counted = static_cast<int>(i) == ctx->counted_op;
      op.spout_factory = [inner = std::move(op.spout_factory), ctx,
                          counted]() -> std::unique_ptr<dsps::Spout> {
        return std::make_unique<ProbedSpout>(inner(), ctx, counted);
      };
    } else if (ctx->spans) {
      op.bolt_factory = [inner = std::move(op.bolt_factory),
                         ctx]() -> std::unique_ptr<dsps::Bolt> {
        return std::make_unique<ProbedBolt>(inner(), ctx);
      };
    }
  }
}

// --- histogram quantiles ----------------------------------------------------

double interp_quantile_ms(const LatencyHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  const Duration v = h.quantile(q);
  // Samples strictly below v's bucket, and through it: quantile((t-0.5)/n)
  // returns the bucket holding the t-th smallest sample.
  auto rank_of = [&](uint64_t t) {
    return h.quantile((static_cast<double>(t) - 0.5) / static_cast<double>(n));
  };
  auto count_below = [&](auto pred) {  // largest t in [0, n] with pred(t)
    uint64_t lo = 0, hi = n;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo + 1) / 2;
      if (pred(rank_of(mid))) lo = mid; else hi = mid - 1;
    }
    return lo;
  };
  const uint64_t below = count_below([&](Duration d) { return d < v; });
  const uint64_t through = count_below([&](Duration d) { return d <= v; });
  // Bucket width: v = (16 + sub + 1) * w with w a power of two (the
  // histogram's 16 sub-buckets per octave); exact buckets below 16 ns.
  Duration w = 1;
  if (v > 16) {
    while (v % (w * 2) == 0 && v / (w * 2) >= 17) w *= 2;
  }
  const double lower = static_cast<double>(v - w);
  if (through <= below) return to_millis(v);
  const double pos = q * static_cast<double>(n) - static_cast<double>(below);
  const double frac = std::clamp(
      pos / static_cast<double>(through - below), 0.0, 1.0);
  return (lower + frac * static_cast<double>(w)) / 1e6;
}

// --- microtimings -----------------------------------------------------------

namespace {

template <typename Fn>
double median_of(int reps, Fn fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

SerdeTiming time_serde(const dsps::Topology& topo, uint64_t seed, int n) {
  std::vector<dsps::Tuple> tuples;
  Rng rng(seed);
  int stream = 0;
  for (const auto& op : topo.ops) {
    if (!op.is_spout) continue;
    auto spout = op.spout_factory();
    spout->prepare(dsps::TaskContext{0, 0, 0, op.parallelism, 0, 0});
    for (int i = 0; i < n; ++i) {
      dsps::Tuple t = spout->next(rng);
      t.stream = stream;
      t.root_id = tuples.size() + 1;
      t.root_emit_time = static_cast<Time>(i) * us(100);
      tuples.push_back(std::move(t));
    }
    ++stream;
  }
  std::vector<int32_t> dsts;
  for (int i = 0; i < 16; ++i) dsts.push_back(i * 3 + 1);

  SerdeTiming out;
  std::vector<std::vector<uint8_t>> encoded(tuples.size());
  double bytes = 0;
  for (const auto& t : tuples) bytes += dsps::TupleSerde::body_size(t);
  out.body_bytes = bytes / static_cast<double>(tuples.size());
  const double per = static_cast<double>(tuples.size());
  out.encode_ns = median_of(5, [&] {
    const int64_t t0 = host_now_ns();
    for (size_t i = 0; i < tuples.size(); ++i) {
      encoded[i] = dsps::TupleSerde::encode_batch_message(dsts, tuples[i]);
    }
    return static_cast<double>(host_now_ns() - t0) / per;
  });
  uint64_t check = 0;
  out.decode_ns = median_of(5, [&] {
    const int64_t t0 = host_now_ns();
    for (const auto& e : encoded) {
      auto m = dsps::TupleSerde::decode_batch_message(
          std::span<const uint8_t>(e.data(), e.size()));
      check += m.tuple.root_id + m.dst_tasks.size();
    }
    return static_cast<double>(host_now_ns() - t0) / per;
  });
  if (check == 0) std::abort();  // keeps the decode loop observable
  return out;
}

double time_tree_build_us(int n, int dstar) {
  int sink = 0;
  const double us_med = median_of(21, [&] {
    const int64_t t0 = host_now_ns();
    auto tree = multicast::MulticastTree::build_nonblocking(n, dstar);
    const int64_t t1 = host_now_ns();
    sink += tree.depth();
    return static_cast<double>(t1 - t0) / 1e3;
  });
  if (sink < 0) std::abort();
  return us_med;
}

double time_kernel_ns_per_event() {
  constexpr uint64_t kEvents = 1'000'000;
  constexpr int kChains = 1024;  // concurrently pending events
  return median_of(3, [] {
    sim::Simulation s;
    uint64_t fired = 0;
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    struct Tick {
      sim::Simulation* s;
      uint64_t* fired;
      uint64_t* x;
      void operator()() const {
        ++*fired;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        s->schedule_after(static_cast<Duration>(*x % 10000), *this);
      }
    };
    for (int i = 0; i < kChains; ++i) {
      s.schedule_after(i, Tick{&s, &fired, &x});
    }
    const int64_t t0 = host_now_ns();
    s.run(kEvents);
    const int64_t t1 = host_now_ns();
    return static_cast<double>(t1 - t0) / static_cast<double>(fired);
  });
}

}  // namespace perfbench
