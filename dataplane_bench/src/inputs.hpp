// Workload definitions and input synthesis.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace dpb {

// Trace sizes are frame counts, fixed for every seed, so each pass is the
// same number of operations whatever the seed.
inline constexpr std::size_t kOfficeFrames = 240;
inline constexpr std::size_t kChurnFrames = 240;
inline constexpr std::size_t kRoamingFrames = 800;
inline constexpr std::size_t kRoamingSites = 4;

// Every workload runs on one fixed installation (AP arrays, impairments,
// calibration, site layout): --seed varies the traffic only, so the work
// per frame does not swing with the hardware draw.
inline constexpr std::uint64_t kDeploymentSeed = 7;

// The office workload's second trace: the unfiltered office mix from the
// deployment's own traffic Rng, i.e. `scenario_runner --seed 7 --aps 4`,
// on which the insider fills client 2's spoof-training window (see
// README). Its inputs do not depend on --seed.
inline constexpr std::size_t kSpoofProbeFrames = 200;

// wideband-churn keeps fewer trackers than the churn pool's 64 live MACs.
inline constexpr std::size_t kChurnTrackedMacs = 32;

// Offered rates of the paced phase: about a third of the saturating rate.
// This host's throughput drops by up to half for seconds at a time; at
// half the saturating rate such a dip turns the open loop into a growing
// backlog. On roaming the generator thread also runs the live handoffs,
// whose 3-4 ms stalls would otherwise stack up.
inline constexpr double kOfficePacedRate = 150.0;
inline constexpr double kChurnPacedRate = 50.0;
inline constexpr double kRoamingPacedRate = 200.0;

// Floors on the share of genuine frames accepted (see README for the
// measured shares they sit under).
inline constexpr double kOfficeAcceptFloor = 0.8;
// wideband-churn's floor is lower: on some seeds a client's spoof
// training goes wrong and all its later frames are dropped (about 20% of
// the trace when it is the busiest client; see README).
inline constexpr double kChurnAcceptFloor = 0.6;
inline constexpr double kRoamingAcceptFloor = 0.2;

/// Settings and deployment specs of a workload; no inputs yet.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

/// Synthesise every trace of `w` through the uplink channel simulator.
///
/// A seeded trace leaves out each generated frame that some AP detects
/// but cannot decode, heard alone by that AP's receiver (about one frame
/// in a few hundred; counted in Trace::qualified_out). In the stream, the
/// receiver holds such a detection for max_packet_samples and, when the
/// AP decodes no later frame before then, emits it as undecodable in a
/// later round, where it becomes a second decision for its frame (FOUND
/// in CHANGES.md). Whether a seed has such a frame is chance, so it
/// cannot be counted as an exact share of failed operations. The fixed
/// spoof probe is not filtered.
void synthesize_inputs(Workload& w);

}  // namespace dpb
