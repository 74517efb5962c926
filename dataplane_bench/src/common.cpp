#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <ctime>

namespace dpb {

sa::EngineConfig engine_config(const sa::BuiltDeployment& dep,
                               const Settings& settings,
                               std::uint64_t spoof_idle_frames) {
  sa::EngineConfig e = dep.engine;
  e.num_threads = settings.workers;
  e.coordinator.max_tracked_macs = settings.max_tracked_macs;
  e.coordinator.spoof_idle_frames =
      static_cast<std::size_t>(spoof_idle_frames);
  return e;
}

sa::FleetConfig fleet_config(const Trace& trace, const Settings& settings,
                             std::size_t sites) {
  sa::FleetConfig fc;
  fc.spec = trace.fleet_spec();
  fc.spec.num_sites = sites;
  fc.threads_per_site = settings.workers;
  fc.with_sim = false;
  fc.spoof_idle_frames = static_cast<std::size_t>(trace.spoof_idle_frames);
  return fc;
}

std::optional<std::size_t> frame_at(const Trace& trace, std::uint32_t site,
                                    std::size_t absolute_start) {
  // A single site's frames are in stream order: binary search. A fleet's
  // frames interleave sites: scan (fleet traces are a few hundred frames).
  if (trace.sites == 1) {
    auto it = std::upper_bound(trace.start.begin(), trace.start.end(),
                               absolute_start);
    // Consecutive spans overlap by the inter-AP skew; a detection lies
    // at its frame's start, so the latest span starting at or before it
    // is its frame.
    if (it == trace.start.begin()) return std::nullopt;
    const std::size_t i =
        static_cast<std::size_t>(it - trace.start.begin()) - 1;
    if (absolute_start < trace.start[i] + trace.length[i]) return i;
    return std::nullopt;
  }
  std::optional<std::size_t> found;
  for (std::size_t i = 0; i < trace.frames(); ++i) {
    if (trace.truth[i].site == site && absolute_start >= trace.start[i] &&
        absolute_start < trace.start[i] + trace.length[i]) {
      found = i;
    }
  }
  return found;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::map<std::string, std::pair<std::size_t, double>> Tracer::self_times()
    const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<std::size_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& slot = out[spans_[i].name];
    ++slot.first;
    slot.second +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) *
        1e-9;
  }
  return out;
}

bool Tracer::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n],\"counts\":{");
  bool first = true;
  for (const auto& [name, n] : counts_) {
    std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(), n);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

std::vector<sa::CMat> copy_round(const std::vector<sa::CMat>& round) {
  return std::vector<sa::CMat>(round.begin(), round.end());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace dpb
