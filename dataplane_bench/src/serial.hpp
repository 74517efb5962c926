// The serial reference pipeline: the layers EngineSession runs, called
// one after another on one thread through their public functions —
// StreamingReceiver::scan -> AccessPoint::prepare -> estimate_band ->
// assemble -> StreamingReceiver::commit -> group_frame_observations ->
// spoof observe + Coordinator::process_prejudged. It is the byte-equality
// oracle for the session's decisions, the single-threaded reference
// figure, and (with a Tracer) the source of the per-layer spans.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "sa/secure/spoofdetector.hpp"

namespace dpb {

/// One site's serial pipeline. Its per-MAC state is split by MAC shard
/// exactly like EngineSession's, so LRU bounds and decisions match.
class SerialSite {
 public:
  SerialSite(const sa::DeploymentSpec& spec, const Settings& settings,
             std::uint64_t spoof_idle_frames, Tracer& tracer);

  /// One round (one chunk per AP), or the final flush pass when
  /// `chunks` is null. Decisions are appended to `out`.
  void round(const std::vector<sa::CMat>* chunks, std::uint64_t request,
             std::vector<sa::EngineDecision>& out);

  /// Per-MAC handoff state, mirroring EngineSession's hooks.
  sa::ClientHandoffState export_client(const sa::MacAddress& mac);
  void import_client(const sa::MacAddress& mac,
                     const sa::ClientHandoffState& state);
  void forget_client(const sa::MacAddress& mac);

  /// memory_bytes() of the spoof trackers and the rate limiter.
  std::size_t state_bytes() const;
  sa::SpoofDetectorStats spoof_stats() const;

 private:
  sa::BuiltDeployment dep_;
  sa::EngineConfig engine_;
  std::vector<std::unique_ptr<sa::StreamingReceiver>> rx_;
  std::vector<sa::Vec2> positions_;
  sa::ShardedSpoofDetector shard_map_;  ///< only for shard_of()
  std::vector<std::unique_ptr<sa::SpoofDetector>> shards_;
  sa::Coordinator coordinator_;
  sa::AccessPoint::FrameScratch scratch_;
  std::size_t next_sequence_ = 0;
  Tracer& tracer_;
};

struct SerialResult {
  double seconds = 0.0;
  /// [trace][site] decisions in emission order.
  std::vector<std::vector<std::vector<sa::EngineDecision>>> decisions;
  std::size_t state_bytes = 0;
  sa::SpoofDetectorStats spoof;
};

/// Run every trace of `w` through fresh serial pipelines. For a fleet
/// trace, client state moves between sites exactly when the fleet's
/// notify_association would move it.
SerialResult run_serial(const Workload& w, Tracer& tracer);

}  // namespace dpb
