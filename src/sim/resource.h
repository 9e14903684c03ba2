// Serialized throughput resources (NIC transmit engines, links).
//
// A ThroughputResource serves byte transfers back to back at a fixed
// bandwidth: a transfer of B bytes occupies the resource for B/bw seconds.
// This models NIC egress serialization — the mechanism by which a 1 Gbps
// Ethernet card saturates under instance-oriented all-grouping.
#pragma once

#include <cstdint>
#include <string>

#include "common/inline_function.h"
#include "common/time.h"
#include "sim/ring.h"
#include "sim/simulation.h"

namespace whale::sim {

class ThroughputResource {
 public:
  // bandwidth_bps: bits per second.
  ThroughputResource(Simulation& sim, std::string name, double bandwidth_bps)
      : sim_(sim), name_(std::move(name)), bandwidth_bps_(bandwidth_bps) {}

  ThroughputResource(const ThroughputResource&) = delete;
  ThroughputResource& operator=(const ThroughputResource&) = delete;

  // Time this resource needs to push `bytes` onto the wire.
  Duration transfer_time(uint64_t bytes) const {
    const double seconds =
        static_cast<double>(bytes) * 8.0 / bandwidth_bps_;
    return from_seconds(seconds);
  }

  // Enqueues a transfer; `done` fires when the last bit has left the
  // resource (propagation is added by the fabric, not here). `fixed`
  // models per-message engine overhead (e.g. RNIC work-request setup)
  // that occupies the resource in addition to the wire time. `post_delay`
  // >= 0 schedules `done` that much after the resource frees up WITHOUT
  // occupying it (the fabric passes propagation here, so the completion
  // chain needs no intermediate trampoline callback); a delay of 0 still
  // goes through the event queue, exactly like schedule_after(0, done).
  // The default (kNoPostDelay) invokes `done` inline at completion.
  static constexpr Duration kNoPostDelay = -1;

  void transfer(uint64_t bytes, InlineFunction done, Duration fixed = 0,
                Duration post_delay = kNoPostDelay) {
    jobs_.push_back(
        Job{transfer_time(bytes) + fixed, post_delay, std::move(done)});
    bytes_total_ += bytes;
    if (!busy_) start_next();
  }

  bool busy() const { return busy_; }
  size_t queue_depth() const { return jobs_.size(); }
  uint64_t bytes_transferred() const { return bytes_total_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  Duration total_busy() const { return total_busy_; }
  const std::string& name() const { return name_; }

 private:
  struct Job {
    Duration duration;
    Duration post_delay;
    InlineFunction done;
  };

  void start_next() {
    if (jobs_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    // Single-server FCFS: the job in service lives in `current_`, so the
    // completion event captures only `this` and stays inline.
    current_ = jobs_.pop_front();
    sim_.schedule_after(current_.duration, [this] { finish_current(); });
  }

  void finish_current() {
    total_busy_ += current_.duration;
    InlineFunction done = std::move(current_.done);
    if (done) {
      if (current_.post_delay >= 0) {
        sim_.schedule_after(current_.post_delay, std::move(done));
      } else {
        done();
      }
    }
    start_next();
  }

  Simulation& sim_;
  std::string name_;
  double bandwidth_bps_;
  Ring<Job> jobs_;
  Job current_{};
  bool busy_ = false;
  Duration total_busy_ = 0;
  uint64_t bytes_total_ = 0;
};

}  // namespace whale::sim
