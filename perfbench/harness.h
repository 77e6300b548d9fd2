// Shared plumbing for the benchmark workloads: the record one episode
// fills, the client-latency recorder, the progress-reporting program
// wrappers, and timed calls into the layers the per-layer split names.
//
// An episode is one set-up plus one measured phase of a workload at a
// fixed amount of work. Everything the benchmark learns about the layers
// it learns from outside: it times its own calls into their public
// functions and reads the counters, OpStats and trace the program
// already emits.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"

namespace perfbench {

using cruz::DurationNs;
using cruz::TimeNs;

inline double Ms(DurationNs ns) { return static_cast<double>(ns) / 1e6; }

class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Everything one episode measured. Sim-time fields are a pure function of
// the seed; host-time fields are not.
struct Outcome {
  // Output checks: every checked item counts as attempted, every failed
  // one adds a reason.
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) errors.push_back(what);
  }

  // --- sim time ---------------------------------------------------------
  std::vector<double> ckpt_begin_ms;     // op start (filter install)
  std::vector<double> ckpt_latency_ms;   // OpStats::full_latency
  std::vector<double> ckpt_downtime_ms;  // OpStats::max_downtime
  std::vector<double> stall_ms;          // StallAfter per checkpoint
  std::vector<double> migrate_downtime_ms;
  std::vector<double> migrate_total_ms;
  std::vector<double> restart_latency_ms;
  std::vector<double> client_ms;  // latency of each application op
  std::uint64_t client_expected = 0;  // ops the schedule calls for
  double job_s = 0;                   // time to finish the fixed work
  std::uint64_t app_bytes = 0;        // payload the application moved
  std::uint64_t pages_fetched = 0;
  std::uint64_t pages_pushed = 0;
  std::uint64_t coord_ops = 0;
  std::uint64_t coord_messages = 0;
  std::uint64_t coord_retransmits = 0;
  std::uint64_t coord_max_fanout = 0;
  std::size_t slo_violation_windows = 0;
  double slo_worst_p95_ms = 0;

  // --- host time --------------------------------------------------------
  double setup_s = 0;
  double setup_burst_s = 0;  // the reference burst right after set-up
  double wall_s = 0;  // the measured phase: the sum of its slices
  // The measured phase cut at fixed sim-time boundaries and after each
  // coordinated op: host seconds of each slice, in order. Slice k is the
  // same work in every episode of a seed. After each slice the episode
  // times a fixed reference burst, which slows when the host does.
  std::vector<double> slice_s;
  std::vector<double> burst_s;
  double peak_rss_mb = 0;  // of this episode
  double sim_host_s = 0;  // inside Simulator::RunUntil / RunWhile
  std::uint64_t sim_events = 0;
  std::vector<double> coord_op_host_ms;

  // Per-layer values read from counters and, in traced episodes, from
  // the trace. Keyed by the BENCHMARK.json per_layer name.
  std::map<std::string, double> layer;
  std::map<std::string, std::size_t> layer_samples;  // of the medians
};

// Every value a same-seed rerun must reproduce bit for bit.
std::string SimFingerprint(const Outcome& o);

// One completed application operation.
struct ClientOp {
  std::uint64_t endpoint = 0;
  TimeNs completed = 0;
  DurationNs latency = 0;
};

// Receives every completion the application endpoints report through
// ProcessCtx::ReportOpLatency on the nodes it is attached to.
class ClientRecorder {
 public:
  void Attach(cruz::os::Os& os);
  // Sizing up front keeps vector growth out of the peak-RSS metric.
  void Reserve(std::size_t ops) { ops_.reserve(ops); }
  const std::vector<ClientOp>& ops() const { return ops_; }
  std::uint64_t completed() const { return ops_.size(); }

 private:
  std::vector<ClientOp> ops_;
};

// Wrappers that run an existing application program unchanged and report
// one client op each time its progress counter (kStatusAddr + 0) has
// advanced by `unit`, timed from the previous report: an slm rank's
// iteration, a stream receiver's read burst. Their state lives in the
// process image, so they survive checkpoint, migration and restart like
// the program they wrap.
inline constexpr char kSlmRankProgram[] = "perfbench.slm_rank";
inline constexpr char kStreamReceiverProgram[] = "perfbench.stream_receiver";
void RegisterProgressPrograms();
// Appends what the wrapper reads from the end of the args blob; the
// wrapped program parses its own arguments from the front and ignores it.
cruz::Bytes WithProgressTrailer(cruz::Bytes inner_args,
                                std::uint64_t endpoint, std::uint64_t unit);

// Deterministic page contents: `compressible` pages are one repeated
// byte, the rest seeded noise that the page codec cannot shrink.
cruz::Bytes BallastPage(cruz::Rng& rng, bool compressible);

// One cluster plus the timed calls the workloads make into it.
class Episode {
 public:
  Episode(const cruz::ClusterConfig& config, bool traced, Outcome& out);
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  cruz::Cluster& c() { return cluster_; }

  // Ends set-up: host time from here on counts as the measured phase.
  void StartMeasuring();
  void StopMeasuring();

  void RunUntil(TimeNs deadline);
  bool RunWhile(const std::function<bool()>& done, TimeNs deadline);

  void Checkpoint(
      const std::vector<cruz::coord::Coordinator::Member>& members,
      const cruz::coord::Coordinator::Options& options, bool generation);
  void Restart(
      const std::vector<cruz::coord::Coordinator::Member>& members,
      const cruz::coord::Coordinator::Options& options);
  void Migrate(std::size_t from, std::size_t to, cruz::os::PodId pod,
               const cruz::ckpt::LiveMigrateOptions& options);

  // Derives client latencies, stalls, SLO windows and goodput from the
  // recorder, then reads the layer counters; in traced episodes also
  // analyzes the trace and times the checkpoint codec on `pods`
  // ((node, pod) pairs) through its public functions.
  void Finish(const ClientRecorder& recorder,
              const std::vector<std::pair<std::size_t, cruz::os::PodId>>&
                  pods,
              bool compress);

 private:
  void AnalyzeTrace();
  void MeasureCodecHost(
      const std::vector<std::pair<std::size_t, cruz::os::PodId>>& pods,
      bool compress);
  void SamplePending();
  void EndSlice();
  TimeNs FirstStepEnd(TimeNs deadline);

  Stopwatch setup_clock_;  // first member: set-up includes the cluster
  cruz::Cluster cluster_;
  bool traced_;
  Outcome& out_;
  Stopwatch slice_clock_;
  bool measuring_ = false;
  std::map<std::uint64_t, DurationNs> full_latency_by_op_;
  std::uint64_t wire_bytes_ = 0;
  std::size_t peak_pending_ = 0;
  bool sampling_ = false;
};

}  // namespace perfbench
