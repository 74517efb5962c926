#include "serial.hpp"

#include <map>

#include "sa/secure/policy.hpp"

namespace dpb {

SerialSite::SerialSite(const sa::DeploymentSpec& spec,
                       const Settings& settings,
                       std::uint64_t spoof_idle_frames, Tracer& tracer)
    : dep_(sa::build_deployment(spec, false)),
      engine_(engine_config(dep_, settings, spoof_idle_frames)),
      shard_map_(engine_.coordinator.tracker, engine_.num_shards,
                 engine_.coordinator.max_tracked_macs,
                 engine_.coordinator.spoof_idle_frames),
      coordinator_(engine_.coordinator),
      tracer_(tracer) {
  for (sa::AccessPoint* ap : dep_.ap_ptrs) {
    positions_.push_back(ap->config().position);
    rx_.push_back(
        std::make_unique<sa::StreamingReceiver>(*ap, engine_.streaming));
  }
  // Same per-shard split of the tracker budget as ShardedSpoofDetector.
  const std::size_t n = engine_.num_shards;
  const std::size_t budget = engine_.coordinator.max_tracked_macs;
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<sa::SpoofDetector>(
        engine_.coordinator.tracker, budget == 0 ? 0 : (budget + i) / n,
        engine_.coordinator.spoof_idle_frames));
  }
}

void SerialSite::round(const std::vector<sa::CMat>* chunks,
                       std::uint64_t request,
                       std::vector<sa::EngineDecision>& out) {
  const bool final_pass = chunks == nullptr;
  Scope round_span(tracer_, "secure.round", -1, request);
  std::vector<std::vector<sa::StreamingReceiver::StreamPacket>> per_ap(
      rx_.size());
  for (std::size_t a = 0; a < rx_.size(); ++a) {
    Scope ap_span(tracer_, "secure.ap_round", round_span.id(), request);
    sa::StreamingReceiver& rx = *rx_[a];
    const sa::AccessPoint& ap = *dep_.ap_ptrs[a];
    sa::StreamingReceiver::Scan scan;
    {
      Scope s(tracer_, "phy.scan", ap_span.id(), request);
      scan = rx.scan(final_pass ? nullptr : &(*chunks)[a]);
    }
    // Same candidate bookkeeping as the session's AP job: candidates an
    // earlier commit already emitted are skipped.
    const std::size_t watermark = rx.emit_watermark();
    std::vector<std::optional<sa::ReceivedPacket>> processed(
        scan.candidates.size());
    for (std::size_t j = 0; j < scan.candidates.size(); ++j) {
      const auto& cand = scan.candidates[j];
      if (cand.absolute_start < scan.prev_seen &&
          cand.absolute_start < watermark) {
        continue;
      }
      std::optional<sa::AccessPoint::FramePrep> prep;
      {
        Scope s(tracer_, "secure.prepare", ap_span.id(), request);
        prep = ap.prepare(*scan.conditioned, cand.detection, &scratch_);
      }
      tracer_.count("secure.candidates", 1);
      if (!prep) continue;
      std::vector<sa::MusicResult> bands;
      bands.reserve(prep->bands.size());
      for (std::size_t b = 0; b < prep->bands.size(); ++b) {
        Scope s(tracer_, "aoa.estimate_band", ap_span.id(), request);
        bands.push_back(ap.estimate_band(*prep, b));
      }
      Scope s(tracer_, "signature.assemble", ap_span.id(), request);
      processed[j] = ap.assemble(std::move(*prep), std::move(bands));
    }
    Scope s(tracer_, "secure.commit", ap_span.id(), request);
    per_ap[a] = rx.commit(scan, std::move(processed), final_pass);
    tracer_.count("secure.emitted", static_cast<double>(per_ap[a].size()));
  }
  std::vector<sa::FrameGroup> groups;
  {
    Scope s(tracer_, "secure.group", round_span.id(), request);
    groups = sa::group_frame_observations(std::move(per_ap), positions_,
                                          engine_.group_slack_samples);
  }
  for (sa::FrameGroup& g : groups) {
    Scope s(tracer_, "secure.decide", round_span.id(), request);
    const sa::ApObservation& best =
        sa::Coordinator::best_observation(g.observations);
    std::optional<sa::SpoofObservation> so;
    if (coordinator_.wants_spoof() && best.packet.frame) {
      const sa::MacAddress& mac = best.packet.frame->addr2;
      so = shards_[shard_map_.shard_of(mac)]->observe(mac,
                                                      best.packet.subband);
    }
    sa::EngineDecision d;
    d.sequence = next_sequence_++;
    d.absolute_start = g.absolute_start;
    d.decision = coordinator_.process_prejudged(g.observations, so,
                                                d.sequence);
    out.push_back(std::move(d));
    tracer_.count("secure.frames", 1);
  }
}

sa::ClientHandoffState SerialSite::export_client(const sa::MacAddress& mac) {
  sa::ClientHandoffState st;
  st.tracker = shards_[shard_map_.shard_of(mac)]->export_tracker(mac);
  sa::PolicyChain& chain = coordinator_.mutable_chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    sa::SecurityPolicy& p = chain.policy_mutable(i);
    if (auto* rate = dynamic_cast<sa::RateLimitPolicy*>(&p)) {
      rate->advance_to(next_sequence_);
      st.rate_in_window = rate->export_residue(mac);
    } else if (auto* acl = dynamic_cast<sa::AclPolicy*>(&p)) {
      st.acl_allowed = acl->acl().is_allowed(mac);
    }
  }
  return st;
}

void SerialSite::import_client(const sa::MacAddress& mac,
                               const sa::ClientHandoffState& state) {
  if (state.tracker) {
    shards_[shard_map_.shard_of(mac)]->import_tracker(mac, *state.tracker);
  }
  sa::PolicyChain& chain = coordinator_.mutable_chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    sa::SecurityPolicy& p = chain.policy_mutable(i);
    if (auto* acl = dynamic_cast<sa::AclPolicy*>(&p)) {
      if (state.acl_allowed) {
        if (*state.acl_allowed) {
          acl->mutable_acl().allow(mac);
        } else {
          acl->mutable_acl().revoke(mac);
        }
      }
    } else if (auto* rate = dynamic_cast<sa::RateLimitPolicy*>(&p)) {
      if (state.rate_in_window) rate->import_residue(mac, *state.rate_in_window);
    }
  }
}

void SerialSite::forget_client(const sa::MacAddress& mac) {
  shards_[shard_map_.shard_of(mac)]->forget(mac);
  sa::PolicyChain& chain = coordinator_.mutable_chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (auto* rate =
            dynamic_cast<sa::RateLimitPolicy*>(&chain.policy_mutable(i))) {
      rate->forget(mac);
    }
  }
}

std::size_t SerialSite::state_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : shards_) bytes += s->memory_bytes();
  const sa::PolicyChain& chain = coordinator_.chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (const auto* rate =
            dynamic_cast<const sa::RateLimitPolicy*>(&chain.policy(i))) {
      bytes += rate->memory_bytes();
    }
  }
  return bytes;
}

sa::SpoofDetectorStats SerialSite::spoof_stats() const {
  sa::SpoofDetectorStats total;
  for (const auto& s : shards_) {
    const sa::SpoofDetectorStats st = s->stats();
    total.packets += st.packets;
    total.alarms += st.alarms;
    total.tracked_macs += st.tracked_macs;
    total.evictions += st.evictions;
    total.expirations += st.expirations;
  }
  return total;
}

SerialResult run_serial(const Workload& w, Tracer& tracer) {
  SerialResult r;
  for (const Trace& t : w.traces) {
    std::vector<std::unique_ptr<SerialSite>> sites;
    const sa::FleetSpec fleet = t.fleet_spec();
    for (std::size_t s = 0; s < t.sites; ++s) {
      sites.push_back(std::make_unique<SerialSite>(
          sa::site_spec(fleet, s), w.settings, t.spoof_idle_frames, tracer));
    }
    std::vector<std::vector<sa::EngineDecision>> out(t.sites);
    for (auto& o : out) o.reserve(t.frames() + 8);
    std::map<sa::MacAddress, std::uint32_t> home;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < t.frames(); ++i) {
      const FrameTruth& f = t.truth[i];
      if (t.sites > 1 && f.associate) {
        auto it = home.find(f.mac);
        if (it == home.end()) {
          home.emplace(f.mac, f.site);
        } else if (it->second != f.site) {
          // FleetCoordinator order: export at the source, import at the
          // destination, forget at the source.
          SerialSite& src = *sites[it->second];
          const sa::ClientHandoffState st = src.export_client(f.mac);
          sites[f.site]->import_client(f.mac, st);
          src.forget_client(f.mac);
          it->second = f.site;
        }
      }
      sites[f.site]->round(&t.rounds[i], i, out[f.site]);
    }
    for (std::size_t s = 0; s < t.sites; ++s) {
      sites[s]->round(nullptr, t.frames(), out[s]);
    }
    r.seconds += seconds_between(t0, Clock::now());
    for (const auto& s : sites) {
      r.state_bytes += s->state_bytes();
      const sa::SpoofDetectorStats st = s->spoof_stats();
      r.spoof.tracked_macs += st.tracked_macs;
      r.spoof.evictions += st.evictions;
      r.spoof.alarms += st.alarms;
      r.spoof.packets += st.packets;
    }
    r.decisions.push_back(std::move(out));
  }
  return r;
}

}  // namespace dpb
