#include "runs.hpp"

#include <atomic>
#include <thread>

#include "sa/fleet/transport.hpp"
#include "sa/fleet/wire.hpp"

namespace dpb {

namespace {

void add_stats(sa::SessionStats& into, const sa::SessionStats& s) {
  into.worker_bursts += s.worker_bursts;
  into.worker_jobs += s.worker_jobs;
  into.spin_polls += s.spin_polls;
  into.parks += s.parks;
  into.max_overlapped_rounds =
      std::max(into.max_overlapped_rounds, s.max_overlapped_rounds);
}

double ms_since(Clock::time_point t0, double due_s) {
  return (seconds_between(t0, Clock::now()) - due_s) * 1e3;
}

/// Latency of each frame: due time -> the time its decision was seen,
/// matched by sample position.
void frame_latencies(const Trace& t, const std::vector<SiteOut>& sites,
                     const std::vector<double>& due_s,
                     std::vector<double>& latency_ms) {
  for (std::uint32_t s = 0; s < sites.size(); ++s) {
    const SiteOut& o = sites[s];
    for (std::size_t k = 0; k < o.decisions.size() && k < o.done_s.size();
         ++k) {
      if (auto i = frame_at(t, s, o.decisions[k].absolute_start)) {
        latency_ms.push_back((o.done_s[k] - due_s[*i]) * 1e3);
      }
    }
  }
}

void run_session(const Trace& t, const Settings& settings, bool paced,
                 PassOut& p) {
  sa::BuiltDeployment dep = sa::build_deployment(t.spec, false);
  sa::SessionConfig sc;
  sc.engine = engine_config(dep, settings, t.spoof_idle_frames);
  std::vector<SiteOut> sites(1);
  SiteOut& o = sites[0];
  o.decisions.reserve(t.frames() + 8);
  o.done_s.reserve(t.frames() + 8);
  Clock::time_point t0;
  sa::EngineSession session(sc, dep.ap_ptrs, [&](const sa::EngineDecision& d) {
    o.done_s.push_back(seconds_between(t0, Clock::now()));
    o.decisions.push_back(d);
  });
  std::vector<double> due(t.frames());
  for (std::size_t i = 0; i < due.size(); ++i) {
    due[i] = static_cast<double>(i) / settings.paced_rate;
  }
  const double cpu0 = process_cpu_s();
  t0 = Clock::now();
  for (std::size_t i = 0; i < t.frames(); ++i) {
    if (paced) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
      p.lateness_ms.push_back(ms_since(t0, due[i]));
    }
    session.submit_round(copy_round(t.rounds[i]));
  }
  session.drain();
  p.busy_s += seconds_between(t0, Clock::now());
  p.cpu_s += process_cpu_s() - cpu0;
  add_stats(p.session, session.session_stats());
  session.close();
  if (paced) frame_latencies(t, sites, due, p.latency_ms);
  p.out.push_back(std::move(sites));
}

void run_fleet(const Trace& t, const Settings& settings, bool paced,
               bool keep, PassOut& p) {
  auto fleet = std::make_unique<sa::FleetCoordinator>(
      fleet_config(t, settings, t.sites));
  std::vector<SiteOut> sites(t.sites);
  std::vector<double> due(t.frames());
  for (std::size_t i = 0; i < due.size(); ++i) {
    due[i] = static_cast<double>(i) / settings.paced_rate;
  }
  // A fleet's decisions land in per-site vectors with no sink hook, so
  // the paced phase times them by watching each session's emitted count
  // (published after the decision is stored) from a poller thread.
  std::atomic<bool> stop{false};
  Clock::time_point t0;
  auto poll_once = [&] {
    const double now = seconds_between(t0, Clock::now());
    for (std::size_t s = 0; s < t.sites; ++s) {
      const std::size_t n =
          fleet->session(s).session_stats().decisions_emitted;
      while (sites[s].done_s.size() < n) sites[s].done_s.push_back(now);
    }
  };
  std::thread poller;
  const double cpu0 = process_cpu_s();
  t0 = Clock::now();
  if (paced) {
    poller = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        poll_once();
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (std::size_t i = 0; i < t.frames(); ++i) {
    const FrameTruth& f = t.truth[i];
    if (paced) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
      p.lateness_ms.push_back(ms_since(t0, due[i]));
    }
    if (f.associate) {
      auto it = p.expected.find(f.mac);
      const bool moves = it != p.expected.end() && it->second.site != f.site;
      const Clock::time_point a = Clock::now();
      const sa::HandoffResult r = fleet->notify_association(f.mac, f.site);
      if (moves) {
        p.stall_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
        if (r.outcome != sa::FleetImportOutcome::kApplied || !r.migrated ||
            r.transport != sa::HandoffOutcome::kDelivered) {
          ++p.handoff_faults;
        }
        it->second = Home{f.site, it->second.generation + 1};
      } else if (it == p.expected.end()) {
        p.expected.emplace(f.mac, Home{f.site, 1});
      }
    }
    fleet->submit_round(f.site, copy_round(t.rounds[i]));
  }
  fleet->drain_all();
  p.busy_s += seconds_between(t0, Clock::now());
  p.cpu_s += process_cpu_s() - cpu0;
  if (paced) {
    stop.store(true, std::memory_order_release);
    poller.join();
    poll_once();
  }
  for (std::size_t s = 0; s < t.sites; ++s) {
    sites[s].decisions = fleet->decisions(s);
    add_stats(p.session, fleet->session(s).session_stats());
  }
  const sa::FleetStats fs = fleet->stats();
  p.cold_starts += fs.cold_starts;
  p.home_map_bytes = fs.home_map_bytes;
  if (paced) frame_latencies(t, sites, due, p.latency_ms);
  p.out.push_back(std::move(sites));
  if (keep) {
    p.fleet = std::move(fleet);
  } else {
    fleet->close();
  }
}

}  // namespace

PassOut run_pass(const Workload& w, bool paced, bool keep_fleet) {
  PassOut p;
  for (const Trace& t : w.traces) {
    if (t.sites > 1) {
      run_fleet(t, w.settings, paced, keep_fleet, p);
    } else {
      run_session(t, w.settings, paced, p);
    }
  }
  return p;
}

std::unique_ptr<sa::FleetCoordinator> sweep_fleet(
    const Trace& t, const Settings& settings, std::size_t prefix,
    std::size_t live_every, HomeMap& expected,
    std::vector<double>& live_stall_ms) {
  auto fleet =
      std::make_unique<sa::FleetCoordinator>(fleet_config(t, settings, 2));
  for (std::size_t i = 0; i < std::min(prefix, t.frames()); ++i) {
    const FrameTruth& f = t.truth[i];
    if (f.associate) {
      fleet->notify_association(f.mac, 0);
      expected.emplace(f.mac, Home{0, 1});
    }
    fleet->submit_round(0, copy_round(t.rounds[i]));
    if ((i + 1) % live_every == 0) {
      Home& home = expected.at(f.mac);
      for (std::uint32_t dest : {1u, 0u}) {
        const Clock::time_point a = Clock::now();
        fleet->notify_association(f.mac, dest);
        live_stall_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
        home = Home{dest, home.generation + 1};
      }
    }
  }
  fleet->drain_all();
  return fleet;
}

namespace {

sa::ByteStream exported(sa::FleetCoordinator& fleet, const sa::MacAddress& mac,
                        std::uint32_t site) {
  sa::FleetClientState msg;
  msg.mac = mac;
  msg.state = fleet.session(site).export_client_state(mac);
  return sa::encode_client_state(msg);
}

}  // namespace

SweepOut handoff_sweep(sa::FleetCoordinator& fleet, HomeMap& expected,
                       std::size_t reps) {
  SweepOut out;
  const std::uint32_t n_sites = static_cast<std::uint32_t>(fleet.num_sites());
  std::map<sa::MacAddress, sa::ByteStream> before;
  for (const auto& [mac, home] : expected) {
    before[mac] = exported(fleet, mac, home.site);
  }
  const std::uint64_t cold0 = fleet.stats().cold_starts;
  out.latency_us.reserve(reps * n_sites * expected.size());
  for (std::size_t r = 0; r < reps; ++r) {
    // Step k moves every client one site on; step n_sites brings it home.
    for (std::uint32_t k = 1; k <= n_sites; ++k) {
      for (auto& [mac, home] : expected) {
        const std::uint32_t dest = (home.site + 1) % n_sites;
        const Clock::time_point a = Clock::now();
        const sa::HandoffResult res = fleet.notify_association(mac, dest);
        out.latency_us.push_back(seconds_between(a, Clock::now()) * 1e6);
        if (res.outcome != sa::FleetImportOutcome::kApplied || !res.migrated ||
            res.transport != sa::HandoffOutcome::kDelivered) {
          ++out.handoff_faults;
        }
        home = Home{dest, home.generation + 1};
      }
    }
  }
  out.cold_starts = fleet.stats().cold_starts - cold0;
  for (const auto& [mac, home] : expected) {
    if (exported(fleet, mac, home.site) != before[mac]) {
      ++out.round_trip_mismatches;
    }
    if (fleet.home_site(mac) != home.site ||
        fleet.generation_of(mac) != home.generation) {
      ++out.home_mismatches;
    }
  }
  out.home_map_bytes = fleet.stats().home_map_bytes;
  return out;
}

double traced_handoffs(sa::FleetCoordinator& fleet, const HomeMap& homes,
                       Tracer& tracer) {
  sa::LoopbackTransport loopback;
  sa::ReliableLink link(loopback, sa::ReliableLinkConfig{});
  sa::ByteStream delivered;
  link.set_import([&](const sa::ByteStream& inner) { delivered = inner; });
  const std::uint32_t n_sites = static_cast<std::uint32_t>(fleet.num_sites());
  double wire_bytes = 0.0;
  std::size_t moves = 0;
  std::uint64_t request = 0;
  for (const auto& [mac, home] : homes) {
    // Out to the next site and back home.
    const std::uint32_t hops[2][2] = {{home.site, (home.site + 1) % n_sites},
                                      {(home.site + 1) % n_sites, home.site}};
    for (const auto& hop : hops) {
      sa::EngineSession& src = fleet.session(hop[0]);
      sa::EngineSession& dst = fleet.session(hop[1]);
      Scope h(tracer, "fleet.handoff", -1, ++request);
      {
        Scope s(tracer, "fleet.quiesce", h.id(), request);
        src.wait_idle();
        dst.wait_idle();
      }
      sa::FleetClientState msg;
      msg.mac = mac;
      msg.generation = home.generation + 1;
      msg.source_site = hop[0];
      msg.dest_site = hop[1];
      {
        Scope s(tracer, "fleet.export", h.id(), request);
        msg.state = src.export_client_state(mac);
      }
      sa::ByteStream wire;
      {
        Scope s(tracer, "fleet.encode", h.id(), request);
        wire = sa::encode_client_state(msg);
      }
      wire_bytes += static_cast<double>(wire.size());
      {
        Scope s(tracer, "fleet.transport", h.id(), request);
        link.send_reliable(wire);
      }
      {
        Scope s(tracer, "fleet.import", h.id(), request);
        if (auto m = sa::decode_client_state(delivered)) {
          dst.import_client_state(mac, m->state);
        }
      }
      {
        Scope s(tracer, "fleet.forget", h.id(), request);
        src.forget_client(mac);
      }
      ++moves;
    }
  }
  return moves == 0 ? 0.0 : wire_bytes / static_cast<double>(moves);
}

}  // namespace dpb
