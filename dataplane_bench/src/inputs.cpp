// Input synthesis through the repo's own channel simulator, and the
// workload definitions. Nothing here is timed.
#include "inputs.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>

#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"

namespace dpb {

namespace {

// The generator stops at its horizon; traces are cut by frame count
// instead, so a trace has the same number of frames on every seed.
constexpr double kNoHorizon = 1e9;

/// True when every AP of `rx` that detects the frame in `chunks`, heard
/// alone, also decodes it, and detects it once. Each receiver is flushed,
/// so the next frame is heard alone too.
bool decodable_everywhere(
    std::vector<std::unique_ptr<sa::StreamingReceiver>>& rx,
    const std::vector<sa::CMat>& chunks) {
  bool ok = true;
  for (std::size_t a = 0; a < rx.size(); ++a) {
    std::vector<sa::StreamingReceiver::StreamPacket> got = rx[a]->push(chunks[a]);
    for (auto& p : rx[a]->flush()) got.push_back(std::move(p));
    ok = ok && got.size() <= 1 && (got.empty() || got[0].packet.phy);
  }
  return ok;
}

void synthesize(Trace& t, sa::ScenarioConfig scenario, std::size_t frames,
                bool drop_forged) {
  scenario.duration_s = kNoHorizon;
  scenario.roaming_sites = t.sites;
  const sa::FleetSpec fleet = t.fleet_spec();
  std::vector<sa::BuiltDeployment> deps;
  deps.reserve(t.sites);
  for (std::size_t s = 0; s < t.sites; ++s) {
    deps.push_back(sa::build_deployment(sa::site_spec(fleet, s), true));
  }
  sa::ScenarioGenerator gen(
      deps[0].testbed, scenario,
      t.traffic_seed ? sa::Rng(*t.traffic_seed) : deps[0].traffic_rng,
      t.spec.estimator);
  // Seeded traces keep only frames that every AP hearing them decodes
  // (see qualified_out in inputs.hpp), judged by one receiver per AP of
  // the simulator's own deployment.
  const bool qualify = t.traffic_seed.has_value();
  std::vector<std::vector<std::unique_ptr<sa::StreamingReceiver>>> rx(
      t.sites);
  for (std::size_t s = 0; qualify && s < t.sites; ++s) {
    for (sa::AccessPoint* ap : deps[s].ap_ptrs) {
      rx[s].push_back(std::make_unique<sa::StreamingReceiver>(
          *ap, deps[s].engine.streaming));
    }
  }
  std::map<sa::MacAddress, std::uint32_t> last_site;
  std::vector<std::vector<std::size_t>> ap_offset(
      t.sites, std::vector<std::size_t>(t.spec.num_aps, 0));
  std::uint16_t frame_seq = 0;
  t.rounds.reserve(frames);
  while (t.frames() < frames) {
    const auto ev = gen.next();
    if (!ev) throw std::runtime_error("scenario generator ran dry");
    for (auto& d : deps) d.sim->advance(ev->dt_s);
    if (drop_forged && ev->kind == sa::TrafficEvent::Kind::kSpoof) continue;
    const sa::Frame f = sa::Frame::data(sa::MacAddress::from_index(0xFF),
                                        ev->mac, sa::Bytes{1, 2, 3},
                                        frame_seq++);
    const sa::CVec wave =
        sa::PacketTransmitter(sa::PhyRate::k6Mbps).transmit(f.serialize());
    std::vector<sa::CMat> chunks = deps[ev->site].sim->transmit(
        ev->from, wave, ev->pattern ? &*ev->pattern : nullptr);
    if (qualify && !decodable_everywhere(rx[ev->site], chunks)) {
      ++t.qualified_out;
      continue;
    }
    // Each AP's stream advances by its own chunk lengths (path delays
    // differ), so frame i spans from the earliest AP's start to the
    // latest AP's end. The skew grows by well under a sample per frame.
    std::vector<std::size_t>& offset = ap_offset[ev->site];
    std::size_t lo = SIZE_MAX;
    std::size_t hi = 0;
    for (std::size_t a = 0; a < chunks.size(); ++a) {
      t.input_bytes += chunks[a].rows() * chunks[a].cols() * sizeof(sa::cd);
      lo = std::min(lo, offset[a]);
      offset[a] += chunks[a].cols();
      hi = std::max(hi, offset[a]);
    }
    FrameTruth truth;
    truth.kind = ev->kind;
    truth.mac = ev->mac;
    truth.from = ev->from;
    truth.site = ev->site;
    // First sighting, or a move since the MAC's last frame in the trace.
    const auto [at, first] = last_site.try_emplace(ev->mac, ev->site);
    truth.associate = first || at->second != ev->site;
    at->second = ev->site;
    t.truth.push_back(truth);
    t.start.push_back(lo);
    t.length.push_back(hi - lo);
    t.rounds.push_back(std::move(chunks));
  }
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  sa::DeploymentSpec spec;
  spec.seed = kDeploymentSeed;
  spec.antennas = 8;
  spec.estimator = sa::AoaBackend::kMusic;
  if (name == "office") {
    spec.num_aps = 4;
    spec.policies = sa::default_policy_chain();  // spoof, fence
    w.settings.workers = 2;
    w.settings.paced_rate = kOfficePacedRate;
    w.genuine_accept_floor = kOfficeAcceptFloor;
    w.traces.resize(2);
    w.traces[0].label = "office";
    w.traces[0].spec = spec;
    w.traces[0].traffic_seed = seed;
    w.traces[1].label = "spoof-probe";
    w.traces[1].spec = spec;
  } else if (name == "wideband-churn") {
    spec.num_aps = 4;
    spec.subbands = 4;
    spec.policies = {sa::PolicyKind::kSpoof, sa::PolicyKind::kFence,
                     sa::PolicyKind::kRateLimit};
    w.settings.workers = 1;
    w.settings.max_tracked_macs = kChurnTrackedMacs;
    w.settings.paced_rate = kChurnPacedRate;
    w.genuine_accept_floor = kChurnAcceptFloor;
    w.traces.resize(1);
    w.traces[0].label = "churn";
    w.traces[0].spec = spec;
    w.traces[0].traffic_seed = seed;
  } else if (name == "roaming") {
    spec.num_aps = 2;
    spec.policies = {sa::PolicyKind::kAcl, sa::PolicyKind::kSpoof,
                     sa::PolicyKind::kFence, sa::PolicyKind::kRateLimit};
    w.fleet = true;
    w.settings.workers = 1;
    w.settings.paced_rate = kRoamingPacedRate;
    w.genuine_accept_floor = kRoamingAcceptFloor;
    w.traces.resize(1);
    w.traces[0].label = "roaming";
    w.traces[0].spec = spec;
    w.traces[0].traffic_seed = seed;
    w.traces[0].sites = kRoamingSites;
    sa::ScenarioConfig sc;
    sc.kind = sa::ScenarioKind::kRoaming;
    sc.roaming_sites = kRoamingSites;
    w.traces[0].spoof_idle_frames = sa::roaming_idle_horizon_frames(sc);
  } else {
    return std::nullopt;
  }
  return w;
}

void synthesize_inputs(Workload& w) {
  for (Trace& t : w.traces) {
    sa::ScenarioConfig sc;
    if (w.name == "office") {
      sc.kind = sa::ScenarioKind::kOffice;
      const bool probe = t.label == "spoof-probe";
      synthesize(t, sc, probe ? kSpoofProbeFrames : kOfficeFrames,
                 /*drop_forged=*/!probe);
    } else if (w.name == "wideband-churn") {
      sc.kind = sa::ScenarioKind::kChurn;
      synthesize(t, sc, kChurnFrames, false);
    } else {
      sc.kind = sa::ScenarioKind::kRoaming;
      synthesize(t, sc, kRoamingFrames, false);
    }
  }
}

}  // namespace dpb
