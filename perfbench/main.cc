// cruz_perfbench — the repository benchmark.
//
//   cruz_perfbench --workload <kv-slo|slm-restart|wide-stream> --seed <n>
//                  --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced episodes of the workload for --seconds of
// host time and prints the end-to-end metrics; sim-time values come from
// one episode (every episode of a seed must reproduce them exactly),
// host-time values summarize the episodes. --trace 1 runs one
// untraced and one traced episode of the seed, requires identical
// sim-time results from both, and prints the per-layer metrics. Either
// way the last stdout line is one JSON object; the exit code is 0 only
// when every output check passed.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "metrics.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;  // sample count etc., human output only
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() &&
         (a.trace == 0 || a.trace == 1) && a.seconds > 0;
}

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
// next reading covers one episode. Freed heap goes back to the kernel
// first, so the mark starts from what the process still holds. Without
// permission the mark keeps the process-wide peak.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kib * 1024.0 / 1e6;
}

Outcome RunEpisode(WorkloadFn run, std::uint64_t seed, bool traced) {
  ResetPeakRss();
  Outcome o = run(seed, traced);
  o.peak_rss_mb = PeakRssMb();
  return o;
}

// A percentile metric; an invalid one is refused: it fails the run.
Metric PercentileMetric(const std::string& name, const std::vector<double>& v,
                        double q, std::vector<std::string>& errors) {
  Percentile p = NearestRank(v, q);
  std::string note = "n=" + std::to_string(p.samples) +
                     ", beyond=" + std::to_string(p.beyond);
  if (!p.valid) {
    errors.push_back(name + " refused: " + note + ", needs n>=" +
                     std::to_string(MinSamplesFor(q)));
  }
  return Metric{name, "ms", p.value, note};
}

std::vector<Metric> EndToEnd(const std::vector<Outcome>& runs,
                             std::vector<std::string>& errors) {
  const Outcome& o = runs.front();
  std::vector<Metric> m;
  m.push_back(PercentileMetric("ckpt_latency_p50_ms", o.ckpt_latency_ms, 0.5,
                               errors));
  m.push_back(
      PercentileMetric("downtime_p50_ms", o.ckpt_downtime_ms, 0.5, errors));
  for (double s : o.stall_ms) {
    if (s < 0) errors.push_back("no endpoint progressed after a checkpoint");
  }
  m.push_back(PercentileMetric("stall_p50_ms", o.stall_ms, 0.5, errors));
  m.push_back(PercentileMetric("client_p50_ms", o.client_ms, 0.5, errors));
  m.push_back(PercentileMetric("client_p99_ms", o.client_ms, 0.99, errors));
  m.push_back(PercentileMetric("client_p999_ms", o.client_ms, 0.999, errors));
  m.push_back(Metric{"job_completion_s", "s", o.job_s, ""});
  std::vector<double> setup, rss;
  std::vector<std::vector<double>> slices, bursts;
  for (const Outcome& r : runs) {
    setup.push_back(AtUndisturbedSpeed(r.setup_s, r.setup_burst_s));
    slices.push_back(r.slice_s);
    bursts.push_back(r.burst_s);
    rss.push_back(r.peak_rss_mb);
  }
  std::string n = std::to_string(runs.size());
  m.push_back(Metric{"setup_s", "s", Median(setup),
                     "median of " + n + " at the undisturbed speed"});
  double wall = UndisturbedTime(slices, bursts);
  if (wall < 0) errors.push_back("same-seed episodes were sliced differently");
  m.push_back(Metric{"host_wall_s", "s", wall,
                     std::to_string(o.slice_s.size()) +
                         " slices, each the fastest of " + n +
                         " at the undisturbed speed"});
  m.push_back(Metric{"peak_rss_mb", "MB", Median(rss), "median of " + n});
  return m;
}

std::vector<Metric> PerLayer(const Outcome& untraced, const Outcome& traced) {
  std::vector<Metric> m;
  auto layer = [&](const char* name, const char* unit) {
    auto it = traced.layer.find(name);
    auto n = traced.layer_samples.find(name);
    std::string note;
    if (n != traced.layer_samples.end()) {
      note = "n=" + std::to_string(n->second);
      if (n->second != 0 && n->second < MinSamplesFor(0.5)) {
        note += ", refused: a median needs " +
                std::to_string(MinSamplesFor(0.5));
      }
    }
    m.push_back(Metric{name, unit,
                       it == traced.layer.end() ? 0.0 : it->second, note});
  };
  m.push_back(Metric{"sim.events", "count",
                     static_cast<double>(untraced.sim_events), "untraced"});
  m.push_back(Metric{"sim.events_per_host_s", "1/s",
                     untraced.sim_host_s == 0
                         ? 0
                         : static_cast<double>(untraced.sim_events) /
                               untraced.sim_host_s,
                     "untraced"});
  layer("sim.peak_pending_events", "count");
  layer("net.frames", "count");
  layer("net.wire_bytes", "bytes");
  layer("app.goodput_mbps", "MB/s");
  layer("tcp.retransmits", "count");
  layer("tcp.rto", "count");
  layer("tcp.retransmit_ratio", "ratio");
  layer("tcp.recovery_p50_ms", "ms");
  layer("tcp.recovery_max_ms", "ms");
  layer("ckpt.captured_bytes", "bytes");
  layer("ckpt.image_bytes", "bytes");
  layer("ckpt.codec_ratio", "ratio");
  layer("ckpt.save_p50_ms", "ms");
  layer("ckpt.restore_ms", "ms");
  layer("ckpt.store.commits", "count");
  layer("ckpt.store.flush_retries", "count");
  layer("ckpt.snapshot_host_ms", "ms/MiB");
  layer("ckpt.serialize_host_ms", "ms/MiB");
  layer("ckpt.deserialize_host_ms", "ms/MiB");
  layer("ckpt.crc_host_ms", "ms/MiB");
  layer("migrate.pages_fetched", "count");
  layer("migrate.pages_pushed", "count");
  layer("migrate.total_p50_ms", "ms");
  layer("migrate.downtime_p50_ms", "ms");
  layer("coord.restart_latency_ms", "ms");
  layer("coord.messages_per_op", "count");
  layer("coord.retransmits", "count");
  layer("coord.max_endpoint_fanout", "count");
  m.push_back(Metric{"coord.op_host_ms", "ms",
                     Median(untraced.coord_op_host_ms), "untraced, median"});
  layer("coord.freeze_wait_ms", "ms");
  layer("coord.filter_install_ms", "ms");
  layer("coord.save_downtime_ms", "ms");
  layer("coord.save_background_ms", "ms");
  layer("coord.commit_wait_ms", "ms");
  layer("coord.shard_wait_ms", "ms");
  layer("coord.resume_ms", "ms");
  layer("coord.restore_ms", "ms");
  layer("load.requests", "count");
  layer("load.completed", "count");
  layer("slo.violation_windows", "count");
  layer("slo.worst_p95_ms", "ms");
  layer("obs.trace_events", "count");
  layer("obs.trace_dropped", "count");
  m.push_back(Metric{"obs.tracing_overhead_pct", "%",
                     untraced.wall_s == 0
                         ? 0
                         : (traced.wall_s / untraced.wall_s - 1) * 100,
                     "traced / untraced host wall - 1"});
  layer("obs.analyze_host_ms", "ms");
  return m;
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  WorkloadFn run = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) run = w.run;
  }
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  std::vector<Outcome> runs;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  auto tally = [&](const Outcome& r) {
    attempted += r.attempted + r.client_ms.size();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  };
  if (args.trace == 0) {
    // Episodes repeat while the next one, as long as the longest so far,
    // still ends within --seconds.
    Stopwatch budget;
    double longest = 0;
    std::string fingerprint;
    bool differ = false;
    do {
      Stopwatch episode;
      runs.push_back(RunEpisode(run, args.seed, false));
      longest = std::max(longest, episode.Seconds());
      Outcome& r = runs.back();
      tally(r);
      if (runs.size() == 1) {
        fingerprint = SimFingerprint(r);
        continue;
      }
      differ = differ || SimFingerprint(r) != fingerprint;
      // Later episodes only add host time. Their per-op samples go once
      // checked, so memory held between episodes stays out of the next
      // episode's peak RSS.
      std::vector<double>().swap(r.client_ms);
    } while (budget.Seconds() + longest < args.seconds);
    if (differ) {
      errors.push_back("same-seed episodes differ in sim-time results");
    }
    metrics = EndToEnd(runs, errors);
  } else {
    runs.push_back(RunEpisode(run, args.seed, false));
    runs.push_back(RunEpisode(run, args.seed, true));
    tally(runs[0]);
    tally(runs[1]);
    if (SimFingerprint(runs[0]) != SimFingerprint(runs[1])) {
      errors.push_back("traced and untraced episodes differ in sim-time "
                       "results");
    }
    metrics = PerLayer(runs[0], runs[1]);
  }

  std::printf("workload %s  seed %llu  trace %d  episodes %zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              runs.size());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const Outcome& o = runs.front();
  double error_rate = ErrorRate(attempted, errors.size());
  std::printf("  error_rate %.6g (%zu failed of %llu checked items)\n",
              error_rate, errors.size(),
              static_cast<unsigned long long>(attempted));
  std::printf("  slo: %zu windows over p95 5 ms, worst p95 %.3f ms; "
              "migrations %zu; restarts %zu\n",
              o.slo_violation_windows, o.slo_worst_p95_ms,
              o.migrate_downtime_ms.size(), o.restart_latency_ms.size());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  bool correct = errors.empty();
  PrintJson(correct, attempted, errors.size(), metrics);
  return correct ? 0 : 1;
}
