// The timed phases: saturating and paced passes through EngineSession /
// FleetCoordinator, and the handoff sweeps.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common.hpp"

namespace dpb {

struct SiteOut {
  std::vector<sa::EngineDecision> decisions;
  /// Seconds from the pass start at which each decision reached the sink
  /// (fleet: was first seen emitted by the site's session).
  std::vector<double> done_s;
};

/// A client's home and generation as the fleet should hold them.
struct Home {
  std::uint32_t site = 0;
  std::uint64_t generation = 0;
};
using HomeMap = std::map<sa::MacAddress, Home>;

struct PassOut {
  double busy_s = 0.0;  ///< summed over traces: first submit -> drained
  double cpu_s = 0.0;   ///< process CPU time over the same spans
  std::vector<std::vector<SiteOut>> out;  ///< [trace][site]
  std::vector<double> latency_ms;   ///< paced: frame due -> its decision
  std::vector<double> lateness_ms;  ///< paced: frame due -> submit start
  sa::SessionStats session;         ///< summed over every session
  // Fleet traces only.
  std::vector<double> stall_ms;  ///< live notify_association that migrated
  std::size_t handoff_faults = 0;  ///< migrations not applied + delivered
  std::uint64_t cold_starts = 0;
  std::uint64_t home_map_bytes = 0;
  HomeMap expected;  ///< homes computed from the trace
  std::unique_ptr<sa::FleetCoordinator> fleet;  ///< kept, quiescent
};

/// One pass over every trace of `w` on fresh deployments and sessions.
/// `paced`: frame i is due i / paced_rate seconds after the start;
/// otherwise rounds go in as fast as backpressure allows. `keep_fleet`
/// keeps a fleet trace's coordinator for the handoff sweep.
PassOut run_pass(const Workload& w, bool paced, bool keep_fleet);

/// A two-site fleet over a single-site trace: site 0 ingests the trace's
/// first `prefix` frames (associating each client there), then drains.
/// Every `live_every` frames one client moves to site 1 and back while
/// site 0 still has rounds in flight; those calls' times go to
/// `live_stall_ms`.
std::unique_ptr<sa::FleetCoordinator> sweep_fleet(
    const Trace& t, const Settings& settings, std::size_t prefix,
    std::size_t live_every, HomeMap& expected,
    std::vector<double>& live_stall_ms);

struct SweepOut {
  std::vector<double> latency_us;  ///< one per notify_association
  std::size_t handoff_faults = 0;  ///< calls not applied + migrated + delivered
  std::uint64_t cold_starts = 0;
  std::size_t round_trip_mismatches = 0;  ///< exported state changed
  std::size_t home_mismatches = 0;  ///< final home/generation != expected
  std::uint64_t home_map_bytes = 0;
};

/// On a quiescent fleet, move every client in `homes` around every other
/// site and back home, `reps` times, timing each notify_association.
/// Checks the round trip and the final homes; `homes` gets the advanced
/// generations.
SweepOut handoff_sweep(sa::FleetCoordinator& fleet, HomeMap& homes,
                       std::size_t reps);

/// The same moves by direct calls, one span per phase: quiesce (wait_idle
/// on both sessions), export, encode, transport (ReliableLink over
/// LoopbackTransport), import (decode + import_client_state), forget.
/// Bypasses the fleet's home map, so run it last. Returns the mean wire
/// size in bytes.
double traced_handoffs(sa::FleetCoordinator& fleet, const HomeMap& homes,
                       Tracer& tracer);

}  // namespace dpb
