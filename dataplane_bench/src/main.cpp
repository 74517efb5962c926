// dataplane_bench: one workload of the SecureAngle dataplane benchmark.
//
//   dataplane_bench --workload office|wideband-churn|roaming --seed N
//                   --seconds S --trace 0|1 [--out DIR]
//
// A run, in order:
//   1. cold set-up: build the workload's deployment(s) and start its
//      EngineSession / FleetCoordinator threads (timed once: setup_s);
//   2. input synthesis through the channel simulator (not timed);
//   3. the serial reference pass (the byte-equality oracle); with
//      --trace 1 also a traced serial pass, whose spans give the
//      per-layer times;
//   4. saturating passes on fresh sessions (frames_per_s, median pass);
//   5. paced passes at a fixed offered rate (decision latency);
//   6. a handoff sweep on a quiescent fleet (handoff latency);
//   7. the correctness checks against the generator's ground truth.
// The last line of stdout is one JSON object: correct, attempted, failed
// and the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "runs.hpp"
#include "sa/capture/format.hpp"
#include "serial.hpp"

namespace dpb {
namespace {

// Share of --seconds spent on saturating and on paced passes; the serial
// passes and the handoff sweep take the rest.
constexpr double kSaturatingShare = 0.45;
constexpr double kPacedShare = 0.3;
constexpr std::size_t kMinSaturatingPasses = 3;
constexpr std::size_t kMaxSaturatingPasses = 64;

// Each handoff-sweep segment times at least this many notify_association
// calls; there is one segment per saturating pass.
constexpr std::size_t kHandoffsPerSegment = 400;
// Single-site workloads: the two-site sweep fleet ingests this prefix of
// the trace, with a live handoff round trip every kLiveEvery frames.
constexpr std::size_t kSweepPrefix = 96;
constexpr std::size_t kLiveEvery = 12;

// Tail percentiles of the paced decision latency and of the handoff
// sweep. Every run has well over 100 samples of each, so at least ten
// lie beyond. The highest such percentile (p99) moved run to run by more
// than any bound allows on a shared 4-vCPU host: a paced frame caught
// behind a descheduled thread waits 5-10 ms more, and a 35 us handoff
// that meets another thread's timed wake-up takes half as long again.
// Four office runs at --seconds 40 read decision latency p99 4.4-14.1 ms,
// p95 3.1-4.6 ms and p90 2.8-3.4 ms, and handoff p99 54-65 us and p95
// 42-46 us.
constexpr double kLatencyTail = 0.90;
constexpr double kHandoffTail = 0.95;

// Paper-derived bound on the median localization error of accepted
// genuine frames: the virtual-fence experiment (appendix A) localizes to
// 0.74 m; measured here: 0.2-0.4 m.
constexpr double kLocalizationBoundM = 0.74;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dataplane_bench --workload office|wideband-churn|"
               "roaming --seed N --seconds S --trace 0|1 [--out DIR]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) usage();
  return a;
}

/// Build every deployment of `w` and start its session threads, then
/// return the seconds from `process_start` to when all were running.
/// Called first thing, so the set-up is cold. Closing them again is not
/// set-up and is not timed.
double cold_setup(const Workload& w, Clock::time_point process_start) {
  std::vector<std::unique_ptr<sa::FleetCoordinator>> fleets;
  std::vector<std::unique_ptr<sa::BuiltDeployment>> deps;
  std::vector<std::unique_ptr<sa::EngineSession>> sessions;
  for (const Trace& t : w.traces) {
    if (t.sites > 1) {
      fleets.push_back(std::make_unique<sa::FleetCoordinator>(
          fleet_config(t, w.settings, t.sites)));
      continue;
    }
    deps.push_back(std::make_unique<sa::BuiltDeployment>(
        sa::build_deployment(t.spec, false)));
    sa::SessionConfig sc;
    sc.engine = engine_config(*deps.back(), w.settings, t.spoof_idle_frames);
    sessions.push_back(std::make_unique<sa::EngineSession>(
        sc, deps.back()->ap_ptrs, [](const sa::EngineDecision&) {}));
  }
  const double setup_s = seconds_between(process_start, Clock::now());
  for (auto& f : fleets) f->close();
  for (auto& s : sessions) s->close();
  return setup_s;
}

/// Correctness checks and the failed-operation count of one pass.
class Verdict {
 public:
  void check(const std::string& name, bool ok) {
    auto [it, fresh] = checks_.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
  }
  bool correct() const {
    for (const auto& [name, ok] : checks_) {
      if (!ok) return false;
    }
    return true;
  }
  const std::map<std::string, bool>& checks() const { return checks_; }

  /// Ground-truth checks of one pass's decisions; returns the frames that
  /// failed (no decision, wrong MAC, accepted off-site or forged frame).
  std::size_t judge(const Workload& w,
                    const std::vector<std::vector<SiteOut>>& out,
                    const SerialResult& oracle) {
    std::size_t failed = 0;
    for (std::size_t ti = 0; ti < w.traces.size(); ++ti) {
      const Trace& t = w.traces[ti];
      std::vector<const sa::EngineDecision*> of(t.frames(), nullptr);
      std::vector<std::size_t> hits(t.frames(), 0);
      bool orphans = false;
      bool bytes_equal = true;
      for (std::uint32_t s = 0; s < t.sites; ++s) {
        const auto& got = out[ti][s].decisions;
        const auto& want = oracle.decisions[ti][s];
        bytes_equal = bytes_equal && got.size() == want.size();
        for (std::size_t k = 0; k < got.size(); ++k) {
          const sa::EngineDecision& d = got[k];
          if (bytes_equal &&
              sa::encode_decision(d.sequence, d.absolute_start, d.decision) !=
                  sa::encode_decision(want[k].sequence, want[k].absolute_start,
                                      want[k].decision)) {
            bytes_equal = false;
          }
          const auto i = frame_at(t, s, d.absolute_start);
          if (!i) {
            orphans = true;
            continue;
          }
          ++hits[*i];
          of[*i] = &d;
        }
      }
      bool one_each = !orphans;
      bool macs = true;
      bool offsite_denied = true;
      for (std::size_t i = 0; i < t.frames(); ++i) {
        const FrameTruth& f = t.truth[i];
        one_each = one_each && hits[i] == 1;
        const sa::EngineDecision* d = of[i];
        const bool mac_ok = d && d->decision.source == f.mac;
        macs = macs && (!d || mac_ok);  // a missing decision fails above
        const bool accepted = d && d->decision.accepted;
        const bool offsite = f.kind == sa::TrafficEvent::Kind::kOffsite;
        const bool forged = f.kind == sa::TrafficEvent::Kind::kSpoof;
        offsite_denied = offsite_denied && !(offsite && accepted);
        if (!d || !mac_ok || (accepted && (offsite || forged))) ++failed;
      }
      check("one decision per frame, none unmatched", one_each);
      check("decoded source MAC equals transmitted MAC", macs);
      check("every off-site frame denied", offsite_denied);
      check("session decisions byte-equal to the serial pass", bytes_equal);
    }
    return failed;
  }

 private:
  std::map<std::string, bool> checks_;
};

struct Quality {
  double localization_median_m = 0.0;
  double genuine_accept_share = 0.0;
  std::size_t genuine = 0;
  std::string per_trace;  ///< JSON list: frames and acceptances by kind
  std::map<std::string, std::size_t> genuine_drops;  ///< by dropping policy
};

/// Localization error and acceptance of genuine frames, from the serial
/// pass (every session pass is checked byte-equal to it).
Quality quality(const Workload& w, const SerialResult& serial) {
  Quality q;
  std::vector<double> err;
  std::size_t accepted = 0;
  q.per_trace = "[";
  for (std::size_t ti = 0; ti < w.traces.size(); ++ti) {
    const Trace& t = w.traces[ti];
    std::size_t sent[4] = {};
    std::size_t passed[4] = {};
    for (std::uint32_t s = 0; s < t.sites; ++s) {
      for (const sa::EngineDecision& d : serial.decisions[ti][s]) {
        const auto i = frame_at(t, s, d.absolute_start);
        if (!i) continue;
        const auto kind = static_cast<std::size_t>(t.truth[*i].kind);
        ++sent[kind];
        if (d.decision.accepted) ++passed[kind];
        if (t.truth[*i].kind != sa::TrafficEvent::Kind::kLegit) continue;
        ++q.genuine;
        if (!d.decision.accepted) {
          ++q.genuine_drops[std::string(d.decision.policy)];
          continue;
        }
        ++accepted;
        if (d.decision.location) {
          const sa::Vec2 p = d.decision.location->position;
          const sa::Vec2 g = t.truth[*i].from;
          err.push_back(std::hypot(p.x - g.x, p.y - g.y));
        }
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"trace\": \"%s\", \"genuine\": [%zu, %zu], "
                  "\"forged\": [%zu, %zu], \"offsite\": [%zu, %zu]}",
                  ti == 0 ? "" : ", ", t.label.c_str(), passed[0], sent[0],
                  passed[1], sent[1], passed[2], sent[2]);
    q.per_trace += buf;
  }
  q.per_trace += "]";
  q.localization_median_m = err.empty() ? INFINITY : median(err);
  q.genuine_accept_share =
      q.genuine == 0 ? 0.0
                     : static_cast<double>(accepted) /
                           static_cast<double>(q.genuine);
  return q;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int run(const Args& args, Clock::time_point process_start) {
  auto made = make_workload(args.workload, args.seed);
  if (!made) usage();
  Workload& w = *made;

  const double setup_s = cold_setup(w, process_start);

  const Clock::time_point synth0 = Clock::now();
  synthesize_inputs(w);
  const double synth_s = seconds_between(synth0, Clock::now());
  std::size_t input_bytes = 0;
  std::size_t qualified_out = 0;
  for (const Trace& t : w.traces) {
    input_bytes += t.input_bytes;
    qualified_out += t.qualified_out;
  }
  const std::size_t frames = w.frames();

  Verdict verdict;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto account = [&](const std::vector<std::vector<SiteOut>>& out,
                     const SerialResult& oracle) {
    attempted += frames;
    failed += verdict.judge(w, out, oracle);
  };
  auto as_out = [](const SerialResult& r) {
    std::vector<std::vector<SiteOut>> out;
    for (const auto& trace : r.decisions) {
      out.emplace_back();
      for (const auto& site : trace) out.back().push_back(SiteOut{site, {}});
    }
    return out;
  };

  // Serial reference pass(es).
  Tracer untraced(false);
  const SerialResult serial = run_serial(w, untraced);
  account(as_out(serial), serial);
  Tracer tracer(args.trace);
  SerialResult traced;
  if (args.trace) {
    traced = run_serial(w, tracer);
    account(as_out(traced), serial);
  }

  // The timed phases run in rounds of saturating passes (each followed by
  // a handoff-sweep segment) and one paced pass, so each metric draws its
  // samples from across the whole run, not from one window of it. The number of
  // rounds (= paced passes) is fixed by --seconds, so every run of a
  // workload takes the same number of latency samples.
  const double paced_pass_s =
      static_cast<double>(frames) / w.settings.paced_rate;
  const std::size_t rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(kPacedShare * args.seconds / paced_pass_s)));
  const double sat_round_s = kSaturatingShare * args.seconds /
                             static_cast<double>(rounds);
  const std::size_t min_sat_per_round =
      (kMinSaturatingPasses + rounds - 1) / rounds;
  std::vector<double> rates;
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::vector<double> live_stall_ms;
  sa::SessionStats session_totals;
  double session_cpu_s = 0.0;
  std::size_t session_frames = 0;
  std::size_t live_handoff_faults = 0;
  std::uint64_t live_cold_starts = 0;
  SweepOut sweep;
  HomeMap homes;
  std::unique_ptr<sa::FleetCoordinator> fleet;
  if (!w.fleet) {
    fleet = sweep_fleet(w.traces[0], w.settings, kSweepPrefix, kLiveEvery,
                        homes, live_stall_ms);
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    const Clock::time_point round0 = Clock::now();
    for (std::size_t k = 0;
         k < min_sat_per_round ||
         (seconds_between(round0, Clock::now()) < sat_round_s &&
          rates.size() < kMaxSaturatingPasses);
         ++k) {
      PassOut p = run_pass(w, /*paced=*/false, /*keep_fleet=*/w.fleet);
      rates.push_back(static_cast<double>(frames) / p.busy_s);
      account(p.out, serial);
      session_totals.parks += p.session.parks;
      session_totals.spin_polls += p.session.spin_polls;
      session_totals.worker_jobs += p.session.worker_jobs;
      session_totals.worker_bursts += p.session.worker_bursts;
      session_totals.max_overlapped_rounds =
          std::max(session_totals.max_overlapped_rounds,
                   p.session.max_overlapped_rounds);
      session_cpu_s += p.cpu_s;
      session_frames += frames;
      live_stall_ms.insert(live_stall_ms.end(), p.stall_ms.begin(),
                           p.stall_ms.end());
      live_handoff_faults += p.handoff_faults;
      live_cold_starts += p.cold_starts;
      if (p.fleet) {
        if (fleet) fleet->close();
        fleet = std::move(p.fleet);
        homes = std::move(p.expected);
      }
      // A sweep segment after every saturating pass, on the quiescent
      // fleet: this pass's (roaming) or the two-site sweep fleet.
      const std::size_t per_rep = homes.size() * fleet->num_sites();
      const SweepOut seg = handoff_sweep(
          *fleet, homes, (kHandoffsPerSegment + per_rep - 1) / per_rep);
      sweep.latency_us.insert(sweep.latency_us.end(), seg.latency_us.begin(),
                              seg.latency_us.end());
      sweep.handoff_faults += seg.handoff_faults;
      sweep.cold_starts += seg.cold_starts;
      sweep.round_trip_mismatches += seg.round_trip_mismatches;
      sweep.home_mismatches += seg.home_mismatches;
      sweep.home_map_bytes = seg.home_map_bytes;
    }

    PassOut p = run_pass(w, /*paced=*/true, /*keep_fleet=*/false);
    account(p.out, serial);
    latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                      p.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), p.lateness_ms.begin(),
                       p.lateness_ms.end());
    live_handoff_faults += p.handoff_faults;
    live_cold_starts += p.cold_starts;
  }
  double wire_bytes = 0.0;
  if (args.trace) wire_bytes = traced_handoffs(*fleet, homes, tracer);
  fleet->close();

  // Checks.
  const Quality q = quality(w, serial);
  verdict.check("median localization error of accepted genuine frames "
                "under the bound",
                q.localization_median_m < kLocalizationBoundM);
  verdict.check("genuine-frame acceptance share above the floor",
                q.genuine_accept_share >= w.genuine_accept_floor);
  verdict.check("every handoff applied and migrated, no cold start",
                sweep.handoff_faults == 0 && sweep.cold_starts == 0 &&
                    live_handoff_faults == 0 && live_cold_starts == 0);
  verdict.check("final home and generation of every client as computed",
                sweep.home_mismatches == 0);
  verdict.check("a sweep back home leaves exported state unchanged",
                sweep.round_trip_mismatches == 0);

  const double lat_tail = percentile(latency_ms, kLatencyTail);
  const double handoff_tail = percentile(sweep.latency_us, kHandoffTail);

  // Detail for the README, on stderr and (with --out) as a JSON file.
  std::string detail;
  {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\": \"%s\", \"seed\": %llu, \"frames_per_pass\": %zu, "
        "\"saturating_passes\": %zu, \"paced_passes\": %zu, "
        "\"paced_rate\": %.6g, \"latency_samples\": %zu, "
        "\"latency_tail_percentile\": %.4g, \"handoff_samples\": %zu, "
        "\"handoff_tail_percentile\": %.4g, \"synthesis_s\": %.6g, "
        "\"synthesis_ms_per_frame\": %.6g, \"input_mb\": %.6g, "
        "\"qualified_out\": %zu, "
        "\"serial_frames_per_s\": %.6g, \"localization_median_m\": %.6g, "
        "\"genuine_accept_share\": %.6g, \"genuine_frames\": %zu, "
        "\"sweep_clients\": %zu, \"live_handoffs\": %zu, \"rates\": [",
        w.name.c_str(), static_cast<unsigned long long>(args.seed), frames,
        rates.size(), rounds, w.settings.paced_rate, latency_ms.size(),
        kLatencyTail, sweep.latency_us.size(), kHandoffTail, synth_s,
        synth_s * 1e3 / static_cast<double>(frames),
        static_cast<double>(input_bytes) / (1024.0 * 1024.0), qualified_out,
        static_cast<double>(frames) / serial.seconds, q.localization_median_m,
        q.genuine_accept_share, q.genuine, homes.size(),
        live_stall_ms.size());
    detail = buf;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", rates[i]);
      detail += buf;
    }
    detail += "], \"accepted_of_sent\": " + q.per_trace;
    detail += ", \"genuine_drops_by_policy\": {";
    for (const auto& [policy, n] : q.genuine_drops) {
      detail += (detail.back() == '{' ? "\"" : ", \"") + policy +
                "\": " + std::to_string(n);
    }
    detail += "}";
    detail += ", \"checks\": {";
    bool first = true;
    for (const auto& [name, ok] : verdict.checks()) {
      detail += (first ? "\"" : ", \"") + name + "\": " + (ok ? "true" : "false");
      first = false;
    }
    detail += "}}";
  }
  std::fprintf(stderr, "%s\n", detail.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"frames_per_s", median(rates), "frames/s"},
        {"decision_latency_p50_ms", median(latency_ms), "ms"},
        {"decision_latency_tail_ms", lat_tail, "ms"},
        {"handoff_latency_p50_us", median(sweep.latency_us), "us"},
        {"handoff_latency_tail_us",
         handoff_tail, "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const auto self = tracer.self_times();
    auto per_call_us = [&](const char* name) {
      auto it = self.find(name);
      if (it == self.end() || it->second.first == 0) return 0.0;
      return it->second.second * 1e6 / static_cast<double>(it->second.first);
    };
    const auto& counts = tracer.counts();
    auto count = [&](const char* name) {
      auto it = counts.find(name);
      return it == counts.end() ? 0.0 : it->second;
    };
    const double sf = static_cast<double>(session_frames);
    metrics = {
        {"phy.scan_us", per_call_us("phy.scan"), "us"},
        {"secure.prepare_us", per_call_us("secure.prepare"), "us"},
        {"aoa.estimate_band_us", per_call_us("aoa.estimate_band"), "us"},
        {"signature.assemble_us", per_call_us("signature.assemble"), "us"},
        {"secure.commit_us", per_call_us("secure.commit"), "us"},
        {"secure.decide_us", per_call_us("secure.decide"), "us"},
        {"secure.candidates_per_frame",
         count("secure.candidates") / count("secure.frames"), "ratio"},
        {"secure.emitted_per_candidate",
         count("secure.emitted") / count("secure.candidates"), "ratio"},
        {"session.parks_per_frame",
         static_cast<double>(session_totals.parks) / sf, "count"},
        {"session.spin_polls_per_frame",
         static_cast<double>(session_totals.spin_polls) / sf, "count"},
        {"session.jobs_per_burst",
         static_cast<double>(session_totals.worker_jobs) /
             static_cast<double>(session_totals.worker_bursts),
         "ratio"},
        {"session.max_overlapped_rounds",
         static_cast<double>(session_totals.max_overlapped_rounds), "count"},
        {"session.cpu_ms_per_frame", session_cpu_s * 1e3 / sf, "ms"},
        {"compact.tracked_macs",
         static_cast<double>(serial.spoof.tracked_macs), "count"},
        {"compact.evictions", static_cast<double>(serial.spoof.evictions),
         "count"},
        {"compact.state_bytes", static_cast<double>(serial.state_bytes), "B"},
        {"fleet.quiesce_us", per_call_us("fleet.quiesce"), "us"},
        {"fleet.export_us", per_call_us("fleet.export"), "us"},
        {"fleet.encode_us", per_call_us("fleet.encode"), "us"},
        {"fleet.wire_bytes", wire_bytes, "B"},
        {"fleet.transport_us", per_call_us("fleet.transport"), "us"},
        {"fleet.import_us", per_call_us("fleet.import"), "us"},
        {"fleet.forget_us", per_call_us("fleet.forget"), "us"},
        {"fleet.live_handoff_stall_ms", median(live_stall_ms), "ms"},
        {"fleet.home_map_bytes", static_cast<double>(sweep.home_map_bytes),
         "B"},
        {"gen.lateness_ms", median(lateness_ms), "ms"},
        {"serial.frames_per_s", static_cast<double>(frames) / serial.seconds,
         "frames/s"},
        {"trace.overhead_pct",
         (traced.seconds / serial.seconds - 1.0) * 100.0, "%"},
    };
  }

  if (!args.out_dir.empty()) {
    std::filesystem::create_directories(args.out_dir);
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f, "{\"detail\": %s, \"metrics\": %s}\n", detail.c_str(),
                   json_metrics(metrics).c_str());
      std::fclose(f);
    }
    if (args.trace) tracer.dump(stem + "-spans.json");
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      verdict.correct() ? "true" : "false", attempted, failed,
      json_metrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace dpb

int main(int argc, char** argv) {
  const auto process_start = dpb::Clock::now();
  const dpb::Args args = dpb::parse(argc, argv);
  try {
    return dpb::run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dataplane_bench: %s\n", e.what());
    return 1;
  }
}
