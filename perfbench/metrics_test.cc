// Self-test of the benchmark's metric arithmetic: the percentile rule,
// error_rate, stall detection from endpoint progress times, and host
// time at the undisturbed speed. Exits
// non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // deliberately unsorted
  return v;
}

void PercentileRule() {
  using perfbench::NearestRank;
  // Nearest rank: rank ceil(q * n) of the ascending order.
  Expect(Near(NearestRank(OneTo(100), 0.5).value, 50), "p50 of 1..100");
  Expect(Near(NearestRank(OneTo(100), 0.99).value, 99), "p99 of 1..100");
  Expect(Near(NearestRank(OneTo(101), 0.5).value, 51), "p50 of 1..101");
  Expect(Near(NearestRank(OneTo(1000), 0.999).value, 999), "p999 of 1000");
  // Validity: at least 10 samples strictly beyond the rank.
  Expect(NearestRank(OneTo(20), 0.5).beyond == 10, "p50 of 20: 10 beyond");
  Expect(NearestRank(OneTo(20), 0.5).valid, "p50 of 20 is valid");
  Expect(!NearestRank(OneTo(19), 0.5).valid, "p50 of 19 is refused");
  Expect(NearestRank(OneTo(1000), 0.99).valid, "p99 of 1000 is valid");
  Expect(!NearestRank(OneTo(999), 0.99).valid, "p99 of 999 is refused");
  Expect(!NearestRank(OneTo(9999), 0.999).valid, "p999 of 9999 refused");
  Expect(NearestRank(OneTo(10000), 0.999).valid, "p999 of 10000 valid");
  Expect(!NearestRank({}, 0.5).valid && NearestRank({}, 0.5).samples == 0,
         "empty input is refused");
  Expect(perfbench::MinSamplesFor(0.5) == 20, "p50 needs 20 samples");
  Expect(perfbench::MinSamplesFor(0.99) == 1000, "p99 needs 1000");
  Expect(perfbench::MinSamplesFor(0.999) == 10000, "p999 needs 10000");
}

void ErrorRate() {
  Expect(Near(perfbench::ErrorRate(1000, 0), 0), "no failures");
  Expect(Near(perfbench::ErrorRate(1000, 5), 0.005), "5 of 1000");
  Expect(Near(perfbench::ErrorRate(0, 0), 1), "nothing attempted");
}

void StallDetection() {
  using perfbench::StallAfter;
  // Two receivers: a advances every 1 ms; b stalls from 10 to 210 ms.
  std::map<std::uint64_t, std::vector<double>> progress;
  for (int t = 1; t <= 300; ++t) progress[0].push_back(t);
  for (int t = 1; t <= 10; ++t) progress[1].push_back(t);
  for (int t = 210; t <= 300; ++t) progress[1].push_back(t);
  Expect(Near(StallAfter(progress, 10.5), 199.5),
         "stall waits for the slowest receiver");
  Expect(Near(StallAfter(progress, 250.5), 0.5),
         "no stall: both advance right away");
  Expect(Near(StallAfter(progress, 5), 1),
         "progress exactly at the begin time does not count");
  // A receiver that finished its work no longer holds the stall open.
  progress[2] = {1, 2, 3};
  Expect(Near(StallAfter(progress, 10.5), 199.5), "finished receiver");
  Expect(StallAfter(progress, 400) < 0, "nobody progresses");
}

void UndisturbedTime() {
  using perfbench::UndisturbedTime;
  const double k = perfbench::kUndisturbedBurstS;
  Expect(Near(perfbench::AtUndisturbedSpeed(3, 1.5 * k), 2),
         "a burst 1.5x its undisturbed time scales by 1/1.5");
  // Episode 2 ran on a host twice as slow throughout: its slices and its
  // bursts both doubled, so both scale to the same time.
  Expect(Near(UndisturbedTime({{1, 3, 2}, {2, 6, 4}},
                              {{k, k, k}, {2 * k, 2 * k, 2 * k}}),
              6),
         "a uniformly slowed episode scales back");
  // At one speed each slice keeps its fastest episode: 1 + 2 + 1.
  Expect(Near(UndisturbedTime({{1, 3, 2}, {2, 2, 1}, {4, 5, 6}},
                              {{k, k, k}, {k, k, k}, {k, k, k}}),
              4),
         "sum of per-slice minima");
  // A slice is scaled by the median of the bursts around it, so one
  // disturbed burst does not shrink its neighbour.
  Expect(Near(UndisturbedTime({{1, 1, 1}}, {{k, 5 * k, k}}), 3),
         "one outlying burst is ignored");
  Expect(Near(UndisturbedTime({{1, 1, 1, 1}}, {{2 * k, 2 * k, k, k}}),
              0.5 + 0.5 + 1 + 1),
         "a slowed stretch scales by its own bursts");
  Expect(UndisturbedTime({{1, 2}, {1}}, {{k, k}, {k}}) < 0,
         "episodes cut differently");
  Expect(UndisturbedTime({{1, 2}}, {{k}}) < 0, "bursts do not line up");
  Expect(UndisturbedTime({}, {}) < 0, "no episodes");
}

}  // namespace

int main() {
  PercentileRule();
  ErrorRate();
  StallDetection();
  UndisturbedTime();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
