// Fingerprint-parity gate (promoted to ctest from the manual CI diff).
//
// results/fingerprints_baseline.txt pins the behavioural fingerprint of
// eight deterministic workloads. Two properties are enforced here:
//
//  1. A build with the obs layer compiled in but *disabled* (the default
//     EngineConfig) is bit-identical to the recorded baseline — the
//     observability layer is a passive witness with zero overhead when off.
//  2. Enabling *tracing* (metrics stay off) still matches the baseline:
//     the tracer only records from callbacks that already exist, so it
//     schedules zero extra simulation events and perturbs nothing.
//
// Properties 3 and 4 pin the checkpointing and elastic layers the same
// way: compiled in but runtime-off, with every other knob of theirs moved
// off its default, they too match the baseline.
//
// Metrics snapshots DO schedule events (the periodic snapshot loop), so
// metrics-on parity is intentionally not asserted.
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "apps/fingerprint_suite.h"
#include "obs/obs.h"
#include "state/state.h"

namespace {

using whale::apps::FingerprintLine;
using whale::apps::fingerprint_probe_labels;
using whale::apps::run_fingerprint_probe;

std::map<std::string, std::string> load_baseline() {
  const std::string path =
      std::string(WHALE_SOURCE_DIR) + "/results/fingerprints_baseline.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing baseline file: " << path;
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    out[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return out;
}

TEST(FingerprintParity, BaselineCoversEveryProbe) {
  const auto baseline = load_baseline();
  for (const auto& label : fingerprint_probe_labels()) {
    EXPECT_TRUE(baseline.count(label)) << "baseline missing probe " << label;
  }
}

// Property 1: obs compiled in but disabled == recorded baseline, for every
// probe in the suite.
TEST(FingerprintParity, DisabledObsMatchesBaseline) {
  const auto baseline = load_baseline();
  for (const auto& label : fingerprint_probe_labels()) {
    const FingerprintLine got = run_fingerprint_probe(label);
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;
  }
}

// Property 2: tracing-on (metrics off) == baseline for the heaviest Whale
// probe and the fault/recovery probe. The tracer must never schedule an
// event, so `events=` in the fingerprint cannot move.
TEST(FingerprintParity, TracingOnMatchesBaseline) {
  if (!whale::obs::kCompiled) GTEST_SKIP() << "built with WHALE_NO_OBS";
  const auto baseline = load_baseline();
  for (const std::string label : {"fig13/whale", "faults/whale-seeded"}) {
    const FingerprintLine got =
        run_fingerprint_probe(label, [](whale::core::EngineConfig& cfg) {
          cfg.obs.tracing_enabled = true;
          cfg.obs.trace_sample_stride = 1;
        });
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;
  }
}

// Property 3: the state/checkpointing layer compiled in but runtime-off is
// bit-identical to the baseline regardless of how its other knobs are set.
// (Property 1 already covers the default-constructed StateConfig; this
// pins that `enabled` alone gates every effect.)
TEST(FingerprintParity, DisabledCheckpointingMatchesBaseline) {
  if (!whale::state::kCompiled) GTEST_SKIP() << "built with WHALE_NO_STATE";
  const auto baseline = load_baseline();
  for (const auto& label : fingerprint_probe_labels()) {
    const FingerprintLine got =
        run_fingerprint_probe(label, [](whale::core::EngineConfig& cfg) {
          cfg.state.enabled = false;
          cfg.state.checkpoint_interval = whale::ms(5);
          cfg.state.store_write_latency = whale::ms(50);
          cfg.state.recover_from_checkpoint = false;
        });
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;
    EXPECT_EQ(got.fingerprint.find("epochs="), std::string::npos) << got.label;
  }
}

// Property 4: elastic rescaling compiled in but runtime-off is
// bit-identical to the baseline with every other elastic knob set to a
// value that would act at once if the subsystem were live. Elasticity
// needs checkpointing, so each probe also runs with state on, where the
// knobs must be just as inert against the same probe without them.
TEST(FingerprintParity, DisabledElasticMatchesBaseline) {
  const auto baseline = load_baseline();
  const auto touch_elastic = [](whale::core::EngineConfig& cfg) {
    cfg.elastic.enabled = false;
    cfg.elastic.poll_interval = whale::ms(1);
    cfg.elastic.up_backlog = 0.0001;
    cfg.elastic.down_backlog = 0.9;
    cfg.elastic.sustain_up = 1;
    cfg.elastic.sustain_down = 1;
    cfg.elastic.cooldown = 0;
    cfg.elastic.step = 4;
    cfg.elastic.max_parallelism = 2;
  };
  const auto state_on = [](whale::core::EngineConfig& cfg) {
    cfg.state.enabled = true;
    cfg.state.checkpoint_interval = whale::ms(25);
  };
  for (const auto& label : fingerprint_probe_labels()) {
    const FingerprintLine got = run_fingerprint_probe(label, touch_elastic);
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;

    const FingerprintLine untouched = run_fingerprint_probe(label, state_on);
    const FingerprintLine touched = run_fingerprint_probe(
        label, [&](whale::core::EngineConfig& cfg) {
          state_on(cfg);
          touch_elastic(cfg);
        });
    EXPECT_EQ(touched.fingerprint, untouched.fingerprint) << label;
    if (whale::state::kCompiled) {
      // The state-on leg really checkpoints, so it is not the first leg
      // over again.
      EXPECT_NE(untouched.fingerprint.find("epochs="), std::string::npos)
          << label;
    }
  }
}

}  // namespace
