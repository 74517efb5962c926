// Shared types of the dataplane benchmark: synthesised traces with their
// ground truth, workload settings, timing helpers and the span recorder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sa/engine/deployment.hpp"
#include "sa/fleet/coordinator.hpp"
#include "sa/sim/deployment.hpp"
#include "sa/sim/scenario.hpp"

namespace dpb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What the generator sent for one frame: the ground truth every check
/// is computed from.
struct FrameTruth {
  sa::TrafficEvent::Kind kind = sa::TrafficEvent::Kind::kLegit;
  sa::MacAddress mac;
  sa::Vec2 from;
  std::uint32_t site = 0;
  /// Roaming: this frame is preceded by FleetCoordinator::
  /// notify_association (first sighting or a site change).
  bool associate = false;
};

/// One input stream for one deployment (single site) or one fleet. Frame
/// i is rounds[i] (one chunk per AP of its site); across its site's AP
/// streams it spans [start[i], start[i] + length[i]).
struct Trace {
  std::string label;
  sa::DeploymentSpec spec;            ///< the (per-site base) deployment
  std::size_t sites = 1;              ///< > 1: a FleetSpec over `spec`
  std::uint64_t spoof_idle_frames = 0;
  /// Seed of the scenario generator; nullopt = the deployment's own
  /// traffic Rng (what scenario_runner uses).
  std::optional<std::uint64_t> traffic_seed;
  std::vector<std::vector<sa::CMat>> rounds;
  std::vector<FrameTruth> truth;
  std::vector<std::size_t> start;
  std::vector<std::size_t> length;
  std::size_t input_bytes = 0;
  /// Generated frames left out of the trace because an AP that detects
  /// them cannot decode them (see inputs.hpp).
  std::size_t qualified_out = 0;

  std::size_t frames() const { return truth.size(); }
  sa::FleetSpec fleet_spec() const {
    sa::FleetSpec f;
    f.site = spec;
    f.num_sites = sites;
    f.site_seed_stride = 1;
    return f;
  }
};

/// Dataplane settings of a workload (the program's knobs, not inputs).
struct Settings {
  std::size_t workers = 1;            ///< EngineSession workers (per site)
  std::size_t max_tracked_macs = 0;   ///< spoof-tracker LRU bound, 0 = none
  double paced_rate = 100.0;          ///< offered frames/s, paced phase
};

struct Workload {
  std::string name;
  Settings settings;
  /// Correctness floor on the share of genuine frames accepted.
  double genuine_accept_floor = 0.0;
  std::vector<Trace> traces;
  bool fleet = false;  ///< roaming: traces[0] runs on a FleetCoordinator
  std::size_t frames() const {
    std::size_t n = 0;
    for (const Trace& t : traces) n += t.frames();
    return n;
  }
};

/// Engine configuration of one single-site trace under `settings`.
sa::EngineConfig engine_config(const sa::BuiltDeployment& dep,
                               const Settings& settings,
                               std::uint64_t spoof_idle_frames);

/// Fleet configuration of a roaming trace, or of the two-site sweep fleet
/// of a single-site trace.
sa::FleetConfig fleet_config(const Trace& trace, const Settings& settings,
                             std::size_t sites);

/// Index of the frame whose sample span holds `absolute_start` in
/// `site`'s stream, or nullopt.
std::optional<std::size_t> frame_at(const Trace& trace, std::uint32_t site,
                                    std::size_t absolute_start);

double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Flat in-memory span log. A span is (name, start, end, parent); spans
/// of one frame share a request id. Nothing is written until dump().
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t request;
  };
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 20);
  }
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  void count(const std::string& name, double n) {
    if (enabled_) counts_[name] += n;
  }
  const std::map<std::string, double>& counts() const { return counts_; }
  /// Per span name: (calls, total self time in s). Self time is a
  /// span's duration minus the time its child spans cover.
  std::map<std::string, std::pair<std::size_t, double>> self_times() const;
  bool dump(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int32_t parent = -1,
        std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~Scope() { t_.end(id_); }
  std::int32_t id() const { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Copy of a round's chunks (submit takes them by value; the inputs are
/// reused by every pass).
std::vector<sa::CMat> copy_round(const std::vector<sa::CMat>& round);

/// Process CPU time in seconds (all threads).
double process_cpu_s();

}  // namespace dpb
