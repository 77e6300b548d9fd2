// Metric arithmetic shared by the benchmark and its self-test: the
// percentile rule, error rate, and stall detection from endpoint progress
// times. Pure functions over plain vectors, so every rule is checked
// without running a simulation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

// A percentile is emitted only when at least this many samples lie
// strictly beyond its rank; otherwise it would be a window maximum in
// disguise.
constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0;
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples ranked strictly above the result
  bool valid = false;
};

// Nearest-rank percentile: the value of rank ceil(q * n) in ascending
// order (1-based). `values` need not be sorted. Invalid when fewer than
// kMinSamplesBeyond samples rank above it; an empty input is invalid
// with samples == 0.
inline Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  double exact = q * static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  p.valid = p.beyond >= kMinSamplesBeyond;
  return p;
}

// Smallest n for which NearestRank(q) is valid.
inline std::size_t MinSamplesFor(double q) {
  for (std::size_t n = 1;; ++n) {
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n - std::max<std::size_t>(rank, 1) >= kMinSamplesBeyond) return n;
  }
}

// failed / attempted; attempted == 0 counts as total failure, because a
// run that attempted nothing verified nothing.
inline double ErrorRate(std::uint64_t attempted, std::uint64_t failed) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

// Stall of one disruption: from `begin` (the filter install that starts a
// checkpoint) until every endpoint has made progress again, i.e. the
// largest over endpoints of (first progress strictly after `begin`) -
// `begin`. `progress` maps endpoint -> ascending progress times. An
// endpoint that never progresses after `begin` has finished its work and
// is ignored; returns a negative value when no endpoint progresses.
inline double StallAfter(const std::map<std::uint64_t, std::vector<double>>&
                             progress,
                         double begin) {
  double stall = -1;
  for (const auto& [endpoint, times] : progress) {
    auto next = std::upper_bound(times.begin(), times.end(), begin);
    if (next == times.end()) continue;
    stall = std::max(stall, *next - begin);
  }
  return stall;
}

// Median of host-time repeats (even counts average the middle pair).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host time at the host's undisturbed speed. Other tenants of a shared
// host slow this thread by up to 2x, for seconds to minutes at a time.
// The benchmark times a fixed reference burst next to what it measures;
// the burst slows with the host, so `seconds` measured next to a burst
// that took `burst` seconds scales to `seconds` * kUndisturbedBurstS /
// `burst`. kUndisturbedBurstS is the burst's fastest time on the 4-vCPU
// Xeon (Emerald Rapids) VM the bounds were set on; on other hardware the
// scaled times are off by a constant factor, which comparisons of two
// commits on one machine do not see.
constexpr double kUndisturbedBurstS = 8.77e-6;

inline double AtUndisturbedSpeed(double seconds, double burst) {
  return seconds * kUndisturbedBurstS / burst;
}

// Host time of a fixed amount of work at the undisturbed speed. Each
// episode of a seed cuts its measured phase into the same slices, so
// slice k is the same work in every episode, and times the reference
// burst after each slice. Slice k is scaled by the median of the three
// bursts around it, which takes out most of the slowdown; the result is
// the sum over slices of each slice's smallest scaled time across
// episodes, which takes out the rest wherever some episode ran the slice
// undisturbed. A slower program is slower in every episode and raises
// the sum. Returns a negative value when no episodes are given or their
// slices and bursts do not line up.
inline double UndisturbedTime(const std::vector<std::vector<double>>& slices,
                              const std::vector<std::vector<double>>& bursts) {
  if (slices.empty() || bursts.size() != slices.size()) return -1;
  const std::size_t n = slices.front().size();
  for (std::size_t e = 0; e < slices.size(); ++e) {
    if (slices[e].size() != n || bursts[e].size() != n) return -1;
  }
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    double best = 0;
    for (std::size_t e = 0; e < slices.size(); ++e) {
      const std::vector<double>& b = bursts[e];
      double around[3] = {b[k == 0 ? 0 : k - 1], b[k],
                          b[k + 1 == n ? k : k + 1]};
      std::sort(around, around + 3);
      double scaled = AtUndisturbedSpeed(slices[e][k], around[1]);
      if (e == 0 || scaled < best) best = scaled;
    }
    sum += best;
  }
  return sum;
}

}  // namespace perfbench
