#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "apps/programs.h"
#include "apps/slm.h"
#include "ckpt/engine.h"
#include "common/crc32.h"
#include "metrics.h"
#include "obs/causal/causal_graph.h"
#include "obs/causal/critical_path.h"
#include "os/program.h"

namespace perfbench {

using namespace cruz;

namespace {

constexpr std::uint64_t kTrailerBytes = 16;
// Wrapper state, on a page no application program touches: +0 progress
// counter at the last report, +8 time of the last report.
constexpr std::uint64_t kWrapperAddr = 0x3000000;
// Objective for the SLO windows: p95 below 5 ms per 250 ms window.
constexpr DurationNs kSloWindow = 250 * kMillisecond;
constexpr double kSloP95Ms = 5.0;

// Sim-time grid on which measured slices end (see Episode::RunUntil).
constexpr DurationNs kSliceStep = 10 * kMillisecond;

TimeNs NextSliceEnd(TimeNs t) { return (t / kSliceStep + 1) * kSliceStep; }

// About 9 us of register-only arithmetic: four xorshift chains and four
// sums over them. It touches no memory, so its time is the speed the core
// gives this thread at that moment, which other tenants of a shared host
// lower. kUndisturbedBurstS (metrics.h) is its fastest time.
double ReferenceBurst() {
  Stopwatch sw;
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (int i = 0; i < 4000; ++i) {
    a ^= a << 13;
    a ^= a >> 7;
    a ^= a << 17;
    b ^= b << 13;
    b ^= b >> 7;
    b ^= b << 17;
    c ^= c << 13;
    c ^= c >> 7;
    c ^= c << 17;
    d ^= d << 13;
    d ^= d >> 7;
    d ^= d << 17;
    e += a;
    f += b;
    g ^= c;
    h += d;
  }
  static volatile std::uint64_t sink;
  sink = a + b + c + d + e + f + g + h;
  return sw.Seconds();
}

class ProgressProgram : public os::Program {
 public:
  explicit ProgressProgram(const char* inner)
      : inner_(os::ProgramRegistry::Instance().Create(inner)) {}

  void Step(os::ProcessCtx& ctx) override {
    Bytes trailer =
        ctx.Mem().ReadBytes(ctx.Reg(1) + ctx.Reg(2) - kTrailerBytes,
                            kTrailerBytes);
    ByteReader r(trailer);
    std::uint64_t endpoint = r.GetU64();
    std::uint64_t unit = r.GetU64();
    inner_->Step(ctx);
    std::uint64_t reported = ctx.Mem().ReadU64(kWrapperAddr);
    std::uint64_t since = ctx.Mem().ReadU64(kWrapperAddr + 8);
    if (since == 0) {  // first step: the op clock starts now
      ctx.Mem().WriteU64(kWrapperAddr + 8, ctx.Now());
      return;
    }
    std::uint64_t counter = ctx.Mem().ReadU64(apps::kStatusAddr);
    if (counter < reported + unit) return;
    ctx.ReportOpLatency(endpoint, since);
    ctx.Mem().WriteU64(kWrapperAddr, counter);
    ctx.Mem().WriteU64(kWrapperAddr + 8, ctx.Now());
  }

 private:
  std::unique_ptr<os::Program> inner_;
};

void AppendValues(std::string& s, const char* name,
                  const std::vector<double>& v) {
  s += name;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, " %.17g", x);
    s += buf;
  }
  s += '\n';
}

// A per-layer median with its sample count. It is 0 where the workload
// does not exercise the layer (no samples) and where it exercises it too
// rarely for a valid median, which is refused rather than emitted: on
// slm-restart TCP recovers only after the restart, 0 to 8 times by seed.
void LayerP50(Outcome& out, const std::string& name,
              const std::vector<double>& v) {
  Percentile p = NearestRank(v, 0.5);
  out.layer_samples[name] = p.samples;
  out.layer[name] = p.valid ? p.value : 0;
}

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

}  // namespace

std::string SimFingerprint(const Outcome& o) {
  std::string s;
  AppendValues(s, "ckpt_begin", o.ckpt_begin_ms);
  AppendValues(s, "ckpt_latency", o.ckpt_latency_ms);
  AppendValues(s, "ckpt_downtime", o.ckpt_downtime_ms);
  AppendValues(s, "stall", o.stall_ms);
  AppendValues(s, "migrate_downtime", o.migrate_downtime_ms);
  AppendValues(s, "migrate_total", o.migrate_total_ms);
  AppendValues(s, "restart", o.restart_latency_ms);
  // Client latencies by digest: a few hundred thousand values.
  std::uint64_t h = 1469598103934665603ull;
  for (double x : o.client_ms) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "client n=%zu digest=%016" PRIx64 "\njob %.17g bytes %" PRIu64
                " pages %" PRIu64 "/%" PRIu64 " coord %" PRIu64 "/%" PRIu64
                "/%" PRIu64 "/%" PRIu64 " slo %zu %.17g\n",
                o.client_ms.size(), h, o.job_s, o.app_bytes, o.pages_fetched,
                o.pages_pushed, o.coord_ops, o.coord_messages,
                o.coord_retransmits, o.coord_max_fanout,
                o.slo_violation_windows, o.slo_worst_p95_ms);
  return s + buf;
}

void ClientRecorder::Attach(os::Os& os) {
  os.set_op_latency_sink(
      [this](std::uint64_t endpoint, TimeNs intended, TimeNs completed) {
        ops_.push_back(ClientOp{endpoint, completed, completed - intended});
      });
}

void RegisterProgressPrograms() {
  apps::RegisterPrograms();
  apps::RegisterSlmProgram();
  auto& registry = os::ProgramRegistry::Instance();
  if (registry.Contains(kSlmRankProgram)) return;
  registry.Register(kSlmRankProgram, [] {
    return std::make_unique<ProgressProgram>("cruz.slm_rank");
  });
  registry.Register(kStreamReceiverProgram, [] {
    return std::make_unique<ProgressProgram>("cruz.stream_receiver");
  });
}

Bytes WithProgressTrailer(Bytes inner_args, std::uint64_t endpoint,
                          std::uint64_t unit) {
  ByteWriter w;
  w.PutU64(endpoint);
  w.PutU64(unit);
  inner_args.insert(inner_args.end(), w.data().begin(), w.data().end());
  return inner_args;
}

Bytes BallastPage(Rng& rng, bool compressible) {
  Bytes page(os::kPageSize);
  if (compressible) {
    std::fill(page.begin(), page.end(),
              static_cast<std::uint8_t>(rng.NextBelow(256)));
    return page;
  }
  for (std::size_t i = 0; i < page.size(); i += 8) {
    std::uint64_t x = rng.NextU64();
    std::memcpy(page.data() + i, &x, 8);
  }
  return page;
}

Episode::Episode(const ClusterConfig& config, bool traced, Outcome& out)
    : cluster_(config), traced_(traced), out_(out) {
  obs::Tracer& tracer = cluster_.sim().tracer();
  tracer.set_enabled(traced);
  if (traced) {
    tracer.set_capacity(std::size_t{1} << 21);
    cluster_.ethernet().set_observer(
        [this](std::size_t, ByteSpan wire) { wire_bytes_ += wire.size(); });
  }
}

void Episode::StartMeasuring() {
  out_.setup_s = setup_clock_.Seconds();
  double bursts[3] = {ReferenceBurst(), ReferenceBurst(), ReferenceBurst()};
  std::sort(bursts, bursts + 3);
  out_.setup_burst_s = bursts[1];
  slice_clock_ = Stopwatch();
  measuring_ = true;
  if (traced_) {
    sampling_ = true;
    SamplePending();
  }
}

void Episode::StopMeasuring() {
  EndSlice();
  measuring_ = false;
  out_.wall_s = 0;
  for (double t : out_.slice_s) out_.wall_s += t;
  out_.sim_events = cluster_.sim().events_executed();
  sampling_ = false;
}

// Traced episodes only: a sim-time sampler of the event queue depth. It
// reads state and schedules itself, nothing else, so application
// behaviour is the same with it as without.
void Episode::SamplePending() {
  if (!sampling_) return;
  peak_pending_ = std::max(peak_pending_, cluster_.sim().pending_events());
  cluster_.sim().Schedule(kMillisecond, [this] { SamplePending(); });
}

void Episode::EndSlice() {
  if (!measuring_) return;
  out_.slice_s.push_back(slice_clock_.Seconds());
  out_.burst_s.push_back(ReferenceBurst());
  slice_clock_ = Stopwatch();
}

// While measuring, the simulation advances in steps that end on a fixed
// sim-time grid, one slice each. Stepping runs the same events in the
// same order as one call to the deadline: nothing outside the simulator
// runs between steps.
TimeNs Episode::FirstStepEnd(TimeNs deadline) {
  return measuring_ ? std::min(NextSliceEnd(cluster_.sim().Now()), deadline)
                    : deadline;
}

void Episode::RunUntil(TimeNs deadline) {
  for (TimeNs end = FirstStepEnd(deadline);;
       end = std::min(NextSliceEnd(end), deadline)) {
    Stopwatch sw;
    cluster_.sim().RunUntil(end);
    out_.sim_host_s += sw.Seconds();
    EndSlice();
    if (end == deadline) break;
  }
}

bool Episode::RunWhile(const std::function<bool()>& done, TimeNs deadline) {
  bool ok = false;
  for (TimeNs end = FirstStepEnd(deadline);;
       end = std::min(NextSliceEnd(end), deadline)) {
    Stopwatch sw;
    ok = cluster_.sim().RunWhile(done, end);
    out_.sim_host_s += sw.Seconds();
    EndSlice();
    if (ok || end == deadline || cluster_.sim().pending_events() == 0) break;
  }
  return ok;
}

void Episode::Checkpoint(
    const std::vector<coord::Coordinator::Member>& members,
    const coord::Coordinator::Options& options, bool generation) {
  TimeNs begin = cluster_.sim().Now();
  Stopwatch sw;
  coord::Coordinator::OpStats s;
  if (generation) {
    Cluster::GenerationOpResult r =
        cluster_.RunGenerationCheckpoint(members, options);
    s = r.stats;
    // Retention: the two newest generations stay restorable, older ones
    // are discarded, so storage does not grow with the run's length.
    if (r.generation > 2) {
      ckpt::GenerationStore store(cluster_.fs(),
                                  ckpt::GenerationStore::kDefaultRoot);
      if (options.tiered) store.set_tiered(&cluster_.tiered());
      store.Discard(r.generation - 2);
    }
  } else {
    s = cluster_.RunCheckpoint(members, options);
  }
  out_.coord_op_host_ms.push_back(sw.Millis());
  EndSlice();
  out_.Check(s.success, "checkpoint op " + std::to_string(s.op_id) +
                            " failed: " + s.abort_reason);
  out_.ckpt_begin_ms.push_back(Ms(begin));
  out_.ckpt_latency_ms.push_back(Ms(s.full_latency));
  out_.ckpt_downtime_ms.push_back(Ms(s.max_downtime));
  ++out_.coord_ops;
  out_.coord_messages += s.total_messages;
  out_.coord_retransmits += s.retransmits;
  out_.coord_max_fanout =
      std::max<std::uint64_t>(out_.coord_max_fanout, s.max_endpoint_fanout);
  full_latency_by_op_[s.op_id] = s.full_latency;
}

void Episode::Restart(
    const std::vector<coord::Coordinator::Member>& members,
    const coord::Coordinator::Options& options) {
  Stopwatch sw;
  Cluster::GenerationOpResult r =
      cluster_.RunGenerationRestart(members, options);
  out_.coord_op_host_ms.push_back(sw.Millis());
  EndSlice();
  out_.Check(r.stats.success && !r.fell_back,
             "generation restart failed: " + r.stats.abort_reason);
  out_.restart_latency_ms.push_back(Ms(r.stats.full_latency));
  ++out_.coord_ops;
  out_.coord_messages += r.stats.total_messages;
  out_.coord_retransmits += r.stats.retransmits;
  full_latency_by_op_[r.stats.op_id] = r.stats.full_latency;
}

void Episode::Migrate(
    std::size_t from, std::size_t to, os::PodId pod,
    const ckpt::LiveMigrateOptions& options) {
  bool done = false;
  ckpt::LiveMigrateStats stats;
  ckpt::LiveMigrator::MigrateWithMode(
      cluster_.pods(from), cluster_.pods(to), pod, ckpt::MigrateMode::kHybrid,
      options, [&](const ckpt::LiveMigrateStats& s) {
        stats = s;
        done = true;
      });
  RunWhile([&] { return done; }, cluster_.sim().Now() + 60 * kSecond);
  out_.Check(done && stats.late_serves == 0 &&
                 cluster_.pods(to).Find(pod) != nullptr,
             "live migration of pod " + std::to_string(pod) + " failed");
  out_.migrate_downtime_ms.push_back(Ms(stats.downtime));
  out_.migrate_total_ms.push_back(Ms(stats.total_duration));
  out_.pages_fetched += stats.pages_fetched_on_demand;
  out_.pages_pushed += stats.pages_pushed;
}

void Episode::Finish(
    const ClientRecorder& recorder,
    const std::vector<std::pair<std::size_t, os::PodId>>& pods,
    bool compress) {
  // Client latencies and per-endpoint progress.
  std::map<std::uint64_t, std::vector<double>> progress;
  std::map<std::int64_t, std::vector<double>> windows;
  out_.client_ms.reserve(recorder.ops().size());
  for (const ClientOp& op : recorder.ops()) {
    out_.client_ms.push_back(Ms(op.latency));
    progress[op.endpoint].push_back(Ms(op.completed));
    windows[static_cast<std::int64_t>(op.completed / kSloWindow)].push_back(
        Ms(op.latency));
  }
  for (auto& [endpoint, times] : progress) {
    std::sort(times.begin(), times.end());
  }
  for (double begin : out_.ckpt_begin_ms) {
    out_.stall_ms.push_back(StallAfter(progress, begin));
  }
  for (const auto& [index, latencies] : windows) {
    Percentile p95 = NearestRank(latencies, 0.95);
    if (!p95.valid) continue;  // sparse edge window
    out_.slo_worst_p95_ms = std::max(out_.slo_worst_p95_ms, p95.value);
    if (p95.value > kSloP95Ms) ++out_.slo_violation_windows;
  }
  if (out_.client_expected != 0) {
    out_.Check(recorder.completed() == out_.client_expected,
               "client ops completed " +
                   std::to_string(recorder.completed()) + " != expected " +
                   std::to_string(out_.client_expected));
  }

  // Layer counters the program keeps in both modes.
  const obs::MetricsRegistry& m = cluster_.sim().metrics();
  auto counter = [&](const char* name) -> double {
    auto it = m.counters().find(name);
    return it == m.counters().end() ? 0.0
                                     : static_cast<double>(it->second.value());
  };
  auto& L = out_.layer;
  double frames = static_cast<double>(cluster_.ethernet().forwarded_frames() +
                                      cluster_.ethernet().flooded_frames());
  L["net.frames"] = frames;
  L["tcp.retransmits"] = counter("tcp.retransmits_total");
  L["tcp.rto"] = counter("tcp.rto_total");
  L["tcp.retransmit_ratio"] = frames == 0 ? 0 : L["tcp.retransmits"] / frames;
  L["ckpt.captured_bytes"] = counter("ckpt.captured_state_bytes_total");
  L["ckpt.image_bytes"] = counter("ckpt.image_bytes_total");
  double captured = L["ckpt.captured_bytes"];
  L["ckpt.codec_ratio"] =
      captured == 0 ? 0 : L["ckpt.image_bytes"] / captured;
  L["ckpt.store.commits"] = counter("ckpt.store.commits_total");
  L["ckpt.store.flush_retries"] = counter("ckpt.store.flush_retries_total");
  L["migrate.pages_fetched"] = static_cast<double>(out_.pages_fetched);
  L["migrate.pages_pushed"] = static_cast<double>(out_.pages_pushed);
  LayerP50(out_, "migrate.total_p50_ms", out_.migrate_total_ms);
  LayerP50(out_, "migrate.downtime_p50_ms", out_.migrate_downtime_ms);
  L["coord.restart_latency_ms"] = MaxOf(out_.restart_latency_ms);
  L["coord.messages_per_op"] =
      out_.coord_ops == 0 ? 0
                          : static_cast<double>(out_.coord_messages) /
                                static_cast<double>(out_.coord_ops);
  L["coord.retransmits"] = static_cast<double>(out_.coord_retransmits);
  L["coord.max_endpoint_fanout"] = static_cast<double>(out_.coord_max_fanout);
  L["load.requests"] = static_cast<double>(out_.client_expected);
  L["load.completed"] = static_cast<double>(recorder.completed());
  L["slo.violation_windows"] = static_cast<double>(out_.slo_violation_windows);
  L["slo.worst_p95_ms"] = out_.slo_worst_p95_ms;
  L["app.goodput_mbps"] =
      out_.job_s == 0 ? 0
                      : static_cast<double>(out_.app_bytes) / 1e6 / out_.job_s;

  if (!traced_) return;
  L["net.wire_bytes"] = static_cast<double>(wire_bytes_);
  L["sim.peak_pending_events"] = static_cast<double>(peak_pending_);
  AnalyzeTrace();
  MeasureCodecHost(pods, compress);
}

void Episode::AnalyzeTrace() {
  auto& L = out_.layer;
  const obs::Tracer& tracer = cluster_.sim().tracer();
  L["obs.trace_events"] = static_cast<double>(tracer.events().size());
  L["obs.trace_dropped"] = static_cast<double>(tracer.dropped());
  out_.Check(tracer.dropped() == 0,
             "trace ring dropped " + std::to_string(tracer.dropped()) +
                 " events: the per-layer split would be partial");

  Stopwatch sw;
  std::vector<obs::TraceEvent> events(tracer.events().begin(),
                                      tracer.events().end());
  obs::causal::CausalGraph graph =
      obs::causal::CausalGraph::Build(std::move(events));
  obs::causal::CriticalPathAnalyzer analyzer(graph);
  std::vector<obs::causal::OpBreakdown> ops = analyzer.AnalyzeAll();
  L["obs.analyze_host_ms"] = sw.Millis();
  out_.Check(graph.stats().mis_joins == 0, "causal graph has mis-joins");

  // Critical-path phases: every coordinated op must tile exactly, and its
  // wall must agree with the coordinator's own full_latency.
  const char* kPhases[][2] = {
      {"freeze-wait", "coord.freeze_wait_ms"},
      {"filter-install", "coord.filter_install_ms"},
      {"save-downtime", "coord.save_downtime_ms"},
      {"save-background", "coord.save_background_ms"},
      {"commit-wait", "coord.commit_wait_ms"},
      {"shard-wait", "coord.shard_wait_ms"},
      {"resume", "coord.resume_ms"},
  };
  std::map<std::string, std::vector<double>> phase_ms;
  std::vector<double> restore_ms;
  std::size_t coordinated = 0;
  for (const obs::causal::OpBreakdown& op : ops) {
    if (op.kind != "checkpoint" && op.kind != "restart") continue;
    ++coordinated;
    DurationNs tiled = 0;
    for (const obs::causal::PhaseTotal& p : op.phases) tiled += p.total;
    auto full = full_latency_by_op_.find(op.op_id);
    DurationNs expect = full == full_latency_by_op_.end() ? 0 : full->second;
    DurationNs drift =
        op.wall() > expect ? op.wall() - expect : expect - op.wall();
    out_.Check(tiled == op.wall() && op.unattributed * 100 <= op.wall() &&
                   drift * 100 <= expect,
               "critical path of op " + std::to_string(op.op_id) +
                   " does not tile its wall time");
    if (op.kind == "restart") {
      restore_ms.push_back(Ms(op.PhaseNs("restore")));
      continue;
    }
    for (const auto& phase : kPhases) {
      phase_ms[phase[1]].push_back(Ms(op.PhaseNs(phase[0])));
    }
  }
  out_.Check(coordinated == full_latency_by_op_.size(),
             "trace holds " + std::to_string(coordinated) + " of " +
                 std::to_string(full_latency_by_op_.size()) +
                 " coordinated ops");
  for (const auto& phase : kPhases) {
    LayerP50(out_, phase[1], phase_ms[phase[1]]);
  }
  L["coord.restore_ms"] = MaxOf(restore_ms);

  // Spans and instants of the save/restore and TCP layers.
  std::vector<double> save_ms, agent_restore_ms, resumes, recovered;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name == "agent.save") save_ms.push_back(Ms(e.dur));
    if (e.name == "agent.restore") agent_restore_ms.push_back(Ms(e.dur));
    if (e.name == "agent.resume") resumes.push_back(Ms(e.ts));
    if (e.name == "migrate.downtime") resumes.push_back(Ms(e.end_ts()));
    if (e.name == "tcp.recovered") recovered.push_back(Ms(e.ts));
  }
  LayerP50(out_, "ckpt.save_p50_ms", save_ms);
  L["ckpt.restore_ms"] = MaxOf(agent_restore_ms);
  // TCP recovery: from the resume that preceded it to tcp.recovered.
  std::sort(resumes.begin(), resumes.end());
  std::vector<double> recovery_ms;
  for (double t : recovered) {
    auto it = std::upper_bound(resumes.begin(), resumes.end(), t);
    if (it == resumes.begin()) continue;  // loss outside any disruption
    recovery_ms.push_back(t - *std::prev(it));
  }
  LayerP50(out_, "tcp.recovery_p50_ms", recovery_ms);
  L["tcp.recovery_max_ms"] = MaxOf(recovery_ms);
}

// Host cost of the checkpoint codec, per MiB, on the workload's own pods:
// capture (snapshot + materialize), serialize, deserialize, and the CRC
// that the manifest records.
void Episode::MeasureCodecHost(
    const std::vector<std::pair<std::size_t, os::PodId>>& pods,
    bool compress) {
  std::vector<double> snapshot, serialize, deserialize, crc;
  constexpr int kRepeats = 3;
  for (const auto& [node, pod] : pods) {
    if (cluster_.pods(node).Find(pod) == nullptr) continue;
    for (int i = 0; i < kRepeats; ++i) {
      Stopwatch t0;
      ckpt::PodCheckpoint ck =
          ckpt::CheckpointEngine::CapturePod(cluster_.pods(node), pod);
      double capture_ms = t0.Millis();
      double state_mib = static_cast<double>(ck.StateBytes()) / kMiB;
      Stopwatch t1;
      Bytes image = ck.Serialize(compress);
      double serialize_ms = t1.Millis();
      double image_mib = static_cast<double>(image.size()) / kMiB;
      Stopwatch t2;
      ckpt::PodCheckpoint back = ckpt::PodCheckpoint::Deserialize(image);
      double deserialize_ms = t2.Millis();
      Stopwatch t3;
      Crc32Accumulator acc;
      acc.Update(image);
      volatile std::uint32_t sink = acc.Finish();
      (void)sink;
      double crc_ms = t3.Millis();
      out_.Check(back.StateBytes() == ck.StateBytes(),
                 "image of pod " + std::to_string(pod) +
                     " does not round-trip");
      if (state_mib <= 0 || image_mib <= 0) continue;
      snapshot.push_back(capture_ms / state_mib);
      serialize.push_back(serialize_ms / state_mib);
      deserialize.push_back(deserialize_ms / image_mib);
      crc.push_back(crc_ms / image_mib);
    }
  }
  out_.layer["ckpt.snapshot_host_ms"] = Median(snapshot);
  out_.layer["ckpt.serialize_host_ms"] = Median(serialize);
  out_.layer["ckpt.deserialize_host_ms"] = Median(deserialize);
  out_.layer["ckpt.crc_host_ms"] = Median(crc);
}

}  // namespace perfbench
