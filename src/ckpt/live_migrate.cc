#include "ckpt/live_migrate.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace cruz::ckpt {

const char* MigrateModeName(MigrateMode mode) {
  switch (mode) {
    case MigrateMode::kStopAndCopy: return "stop-and-copy";
    case MigrateMode::kPreCopy: return "pre-copy";
    case MigrateMode::kPostCopy: return "post-copy";
    case MigrateMode::kHybrid: return "hybrid";
  }
  return "unknown";
}

namespace {

DurationNs TransferTime(std::uint64_t bytes,
                        const LiveMigrateOptions& options) {
  return options.network_bytes_per_sec == 0
             ? 0
             : bytes * kSecond / options.network_bytes_per_sec;
}

// Counts the pod's current dirty bytes and clears the tracking, starting
// the next pre-copy window. The pod keeps running.
std::uint64_t SweepDirtyBytes(pod::PodManager& pods, os::PodId id) {
  os::Os& os = pods.node().os();
  std::uint64_t bytes = 0;
  for (os::Pid pid : os.PodProcesses(id)) {
    os::Process* proc = os.FindProcess(pid);
    if (proc == nullptr) continue;
    bytes += proc->memory().dirty_pages().size() * os::kPageSize;
    proc->memory().ClearDirty();
  }
  return bytes;
}

// The non-page state that must cross the network during any stop:
// registers, fd tables, connection/pipe/IPC records — approximated by
// the serialized image size minus the raw page payload. StateBytes()
// alone counts buffered *data*, which is zero for a socketless pod, and
// a stop never moves zero bytes.
std::uint64_t KernelStateBytes(const PodCheckpoint& ck) {
  return ck.RawImageBytes() - ck.PageCount() * os::kPageSize;
}

std::uint64_t ResidentBytes(pod::PodManager& pods, os::PodId id) {
  os::Os& os = pods.node().os();
  std::uint64_t bytes = 0;
  for (os::Pid pid : os.PodProcesses(id)) {
    os::Process* proc = os.FindProcess(pid);
    if (proc != nullptr) bytes += proc->memory().ResidentBytes();
  }
  return bytes;
}

// Migrate op ids live in their own namespace (bit 62 set) so they can
// never collide with coordinator op ids in shared traces.
std::uint64_t NextMigrateOpId(sim::Simulator& sim) {
  obs::Counter& ops = sim.metrics().counter("migrate.ops_total");
  ops.Add();
  return (1ull << 62) | ops.value();
}

// The op span is charged to the source node (the migrator runs there);
// attribution reads the agent attr to name a straggler node.
obs::SpanId BeginOpSpan(pod::PodManager& source, MigrateMode mode,
                        std::uint64_t op_id, os::PodId pod) {
  os::Os& os = source.node().os();
  return os.sim().tracer().BeginSpan(
      "migrate", std::string("migrate.op.") + MigrateModeName(mode),
      obs::TraceAttrs{}.Agent(os.node_name()).Op(op_id).Pod(pod));
}

// The stop-copy window's drop point: once the source deletes the VIF,
// its NIC's MAC filter (or, with a shared MAC, its stack) discards what
// peers still send to the pod. The source watches for those TCP losses
// from the moment the pod is gone (not before: the teardown's own FINs
// belong to the dead incarnation); at resume the target kicks exactly
// the connections that lost a segment (TcpConnection::Kick).
//
// Frames the switch forwarded to the source just before the target's
// gratuitous ARP moved the pod's MAC still arrive there after the resume.
// The source keeps recording for one switch transit of a full frame on a
// 100 Mb/s link, then the target kicks those stragglers too.
constexpr DurationNs kStragglerDrain = 200 * kMicrosecond;

void KickStopCopyDrops(pod::PodManager& source, pod::PodManager& target,
                       net::Ipv4Address ip) {
  os::NetworkStack& src = source.node().stack();
  target.node().stack().KickConnections(src.TakeDrops(ip));
  src.WatchDrops(ip);
  target.node().os().sim().Schedule(kStragglerDrain, [&source, &target, ip] {
    target.node().stack().KickConnections(source.node().stack().TakeDrops(ip));
  });
}

// The shared final phase of the stop-bounded modes: stop, capture, move
// the pod, resume, report. `residual_bytes` is what still has to cross
// the network while the pod is stopped.
void FinalPhase(pod::PodManager& source, pod::PodManager& target,
                os::PodId id, const LiveMigrateOptions& options,
                TimeNs started, LiveMigrateStats stats, obs::SpanId op_span,
                LiveMigrator::DoneFn done) {
  sim::Simulator& sim = source.node().os().sim();
  TimeNs stop_time = sim.Now();
  obs::SpanId downtime_span = sim.tracer().BeginSpan(
      "migrate", "migrate.downtime",
      obs::TraceAttrs{}
          .Agent(source.node().os().node_name())
          .Op(stats.op_id)
          .Pod(id)
          .Phase("stop-copy"));
  CheckpointEngine::StopPod(source, id);
  PodCheckpoint ck = CheckpointEngine::CapturePod(source, id);
  // Residual transfer: the final dirty pages plus the non-memory state
  // (sockets, pipes, IPC — everything except the pre-copied pages).
  std::uint64_t kernel_state = KernelStateBytes(ck);
  stats.final_bytes += kernel_state;
  std::uint64_t final_bytes = stats.final_bytes;
  DurationNs transfer = TransferTime(final_bytes, options);
  source.DestroyPod(id);
  source.node().stack().WatchDrops(ck.ip);  // see KickStopCopyDrops
  sim.Schedule(transfer, [&source, &target, ck = std::move(ck), stats,
                          stop_time, started, op_span, downtime_span,
                          done = std::move(done)]() mutable {
    sim::Simulator& sim2 = target.node().os().sim();
    os::PodId restored = CheckpointEngine::RestorePod(target, ck);
    CheckpointEngine::ResumePod(target, restored);
    KickStopCopyDrops(source, target, ck.ip);
    stats.pod = restored;
    stats.downtime = sim2.Now() - stop_time;
    stats.total_duration = sim2.Now() - started;
    sim2.tracer().EndSpan(downtime_span);
    sim2.tracer().EndSpan(op_span);
    CRUZ_INFO("migrate") << "pod " << restored << " migrated ("
                         << MigrateModeName(stats.mode)
                         << "): rounds=" << stats.rounds << " downtime="
                         << ToMillis(stats.downtime) << "ms";
    done(stats);
  });
}

// ---------------------------------------------------------------------------
// Post-copy page-server session
// ---------------------------------------------------------------------------

// Shared state of one in-flight post-copy (or hybrid) migration: the
// source's frozen page image, the target's residue bookkeeping, and the
// demand/push protocol state. Lives until full residency.
struct PostCopySession : std::enable_shared_from_this<PostCopySession> {
  using PageKey = std::pair<os::Pid, std::uint64_t>;  // (vpid, page index)

  sim::Simulator* sim = nullptr;
  pod::PodManager* source = nullptr;  // page server's side (liveness gate)
  pod::PodManager* target = nullptr;
  os::PodId pod_id = os::kNoPod;
  LiveMigrateOptions options;
  LiveMigrateStats stats;
  TimeNs started = 0;
  TimeNs stop_time = 0;
  obs::SpanId op_span = obs::kInvalidSpanId;
  LiveMigrator::DoneFn done;

  // Fault-hook attribution: page requests travel target -> source, page
  // responses source -> target.
  std::string source_node;
  std::string target_node;
  std::uint32_t source_ip = 0;
  std::uint32_t target_ip = 0;

  // Frozen source image: per-vpid shared-page snapshots taken while the
  // pod was stopped. Released (cleared) only at full residency; a
  // request arriving later is refused, never served.
  std::map<os::Pid, os::MemorySnapshot> frozen;
  bool released = false;

  std::map<os::Pid, os::Pid> real_pid;  // vpid -> real pid on the target
  std::map<os::Pid, std::set<std::uint64_t>> residue;  // not yet resident
  std::uint64_t remaining = 0;
  bool finished = false;

  std::set<PageKey> demand_pending;         // fault outstanding
  std::map<PageKey, TimeNs> fault_started;  // degradation accounting
  std::map<PageKey, obs::SpanId> fetch_span;
  std::map<PageKey, TimeNs> push_sent;  // in-flight pushes (loss re-push)

  bool IsMissing(const PageKey& key) const {
    auto it = residue.find(key.first);
    return it != residue.end() && it->second.count(key.second) != 0;
  }

  fault::MessageFate RequestFate() {
    return options.injector == nullptr
               ? fault::MessageFate{}
               : options.injector->OnControlSend(target_node, source_ip,
                                                kPageRequestMsgByte);
  }
  fault::MessageFate ResponseFate() {
    return options.injector == nullptr
               ? fault::MessageFate{}
               : options.injector->OnControlSend(source_node, target_ip,
                                                kPageResponseMsgByte);
  }

  // Missing-page trap: the target OS invokes this with the faulting
  // process already parked.
  void OnFault(os::Pid vpid, std::uint64_t page) {
    if (finished) return;
    PageKey key{vpid, page};
    fault_started.emplace(key, sim->Now());
    fetch_span.emplace(
        key, sim->tracer().BeginSpan(
                 "migrate", "migrate.postcopy.fetch",
                 obs::TraceAttrs{}
                     .Agent(target_node)
                     .Op(stats.op_id)
                     .Pod(pod_id)
                     .Phase("postcopy-fetch")
                     .Arg("vpid", static_cast<std::uint64_t>(vpid))
                     .Arg("page", page)));
    if (sim->tracer().VerboseSample()) {
      sim->tracer().Instant("migrate", "migrate.postcopy.fault",
                            obs::TraceAttrs{}
                                .Op(stats.op_id)
                                .Pod(pod_id)
                                .Arg("page", page));
    }
    SendRequest(key, /*retransmit=*/false);
  }

  // Target -> source demand fetch, with a retransmit timer.
  void SendRequest(PageKey key, bool retransmit) {
    if (finished || !IsMissing(key)) return;
    if (retransmit) stats.requests_retransmitted += 1;
    demand_pending.insert(key);
    auto self = shared_from_this();
    fault::MessageFate fate = RequestFate();
    int deliveries = fate.drop ? 0 : (fate.duplicate ? 2 : 1);
    for (int i = 0; i < deliveries; ++i) {
      sim->Schedule(options.page_latency + fate.delay,
                    [self, key] { self->ServeRequest(key); });
    }
    sim->Schedule(options.page_request_timeout, [self, key] {
      if (self->finished || !self->IsMissing(key)) return;
      if (self->demand_pending.count(key) == 0) return;
      self->SendRequest(key, /*retransmit=*/true);
    });
  }

  // A crashed source machine serves nothing: its frozen image died with
  // it. Demand fetches go unanswered (the target stalls, cleanly) and
  // the background push stops. Latched — a later reboot brings back an
  // empty machine, not the frozen image.
  mutable bool source_dead = false;
  bool SourceDead() const {
    if (!source_dead && source != nullptr && source->node().failed()) {
      source_dead = true;
    }
    return source_dead;
  }

  // Source side: a request arrived at the frozen page store.
  void ServeRequest(PageKey key) {
    if (SourceDead()) return;
    if (released) {
      // The fence: after release the source refuses — it can no longer
      // serve, and counting proves it never does (late_serves == 0).
      sim->metrics().counter("migrate.postcopy.late_requests_total").Add();
      return;
    }
    SendResponse(key, /*demand=*/true);
  }

  // Source -> target page delivery (demand response or background push).
  void SendResponse(PageKey key, bool demand) {
    if (released) {
      stats.late_serves += 1;
      return;
    }
    auto fit = frozen.find(key.first);
    if (fit == frozen.end() || fit->second.Find(key.second) == nullptr) {
      return;
    }
    if (options.test_drop_page_response) {
      // Breaking mutation: the page is accounted as delivered but never
      // sent, so "done" fires with pages still missing on the target.
      Account(key, demand);
      return;
    }
    fault::MessageFate fate = ResponseFate();
    int deliveries = fate.drop ? 0 : (fate.duplicate ? 2 : 1);
    auto self = shared_from_this();
    for (int i = 0; i < deliveries; ++i) {
      sim->Schedule(options.page_latency + fate.delay, [self, key, demand] {
        self->DeliverPage(key, demand);
      });
    }
  }

  // Target side: page content arrived.
  void DeliverPage(PageKey key, bool demand) {
    if (finished) {
      stats.duplicate_fills_dropped += 1;
      return;
    }
    auto fit = frozen.find(key.first);
    if (fit == frozen.end()) return;
    const os::MemorySnapshot::Page* content = fit->second.Find(key.second);
    if (content == nullptr) return;
    auto pit = real_pid.find(key.first);
    if (pit == real_pid.end()) return;
    os::Os& os = target->node().os();
    if (!os.FillPage(pit->second, key.second,
                     cruz::ByteSpan(content->data(), content->size()))) {
      stats.duplicate_fills_dropped += 1;
      return;
    }
    Account(key, demand);
  }

  // A page became resident (or, under the drop-response mutation, was
  // falsely accounted as such).
  void Account(PageKey key, bool demand) {
    auto rit = residue.find(key.first);
    if (rit == residue.end() || rit->second.erase(key.second) == 0) return;
    remaining -= 1;
    push_sent.erase(key);
    bool was_pending = demand_pending.erase(key) != 0;
    if (demand) {
      stats.pages_fetched_on_demand += 1;
    } else {
      stats.pages_pushed += 1;
    }
    if (was_pending) {
      auto ts = fault_started.find(key);
      if (ts != fault_started.end()) {
        DurationNs stall = sim->Now() - ts->second;
        stats.degradation += stall;
        sim->metrics()
            .histogram("migrate.postcopy.fault_latency_ns")
            .Record(static_cast<std::uint64_t>(stall));
        fault_started.erase(ts);
      }
      auto sp = fetch_span.find(key);
      if (sp != fetch_span.end()) {
        sim->tracer().EndSpan(sp->second);
        fetch_span.erase(sp);
      }
    }
    if (remaining == 0) Finish();
  }

  // Background active push: drains the residue sequentially, skipping
  // pages with an outstanding demand fetch or a recent in-flight push.
  void SchedulePush() {
    auto self = shared_from_this();
    sim->Schedule(options.push_interval, [self] { self->PushNext(); });
  }

  void PushNext() {
    if (finished || SourceDead()) return;
    TimeNs now = sim->Now();
    for (const auto& [vpid, pages] : residue) {
      for (std::uint64_t page : pages) {
        PageKey key{vpid, page};
        if (demand_pending.count(key) != 0) continue;
        auto sent = push_sent.find(key);
        if (sent != push_sent.end() &&
            now - sent->second < options.page_request_timeout) {
          continue;  // in flight; re-eligible if the response was lost
        }
        push_sent[key] = now;
        SendResponse(key, /*demand=*/false);
        SchedulePush();
        return;
      }
    }
    if (remaining > 0) SchedulePush();  // everything in flight: poll again
  }

  // Full residency: release the frozen image, detach the fault handlers,
  // and report. This is the only place the source lets go of its copy.
  void Finish() {
    if (finished) return;
    finished = true;
    released = true;
    frozen.clear();
    os::Os& os = target->node().os();
    for (const auto& [vpid, real] : real_pid) {
      os.ClearPageFaultHandler(real);
    }
    stats.total_duration = sim->Now() - started;
    sim->tracer().EndSpan(
        op_span, {{"pages_fetched",
                   std::to_string(stats.pages_fetched_on_demand)},
                  {"pages_pushed", std::to_string(stats.pages_pushed)}});
    sim->metrics()
        .counter("migrate.postcopy.pages_fetched_total")
        .Add(stats.pages_fetched_on_demand);
    sim->metrics()
        .counter("migrate.postcopy.pages_pushed_total")
        .Add(stats.pages_pushed);
    CRUZ_INFO("migrate") << "pod " << stats.pod << " migrated ("
                         << MigrateModeName(stats.mode)
                         << "): downtime=" << ToMillis(stats.downtime)
                         << "ms degradation="
                         << ToMillis(stats.degradation) << "ms fetched="
                         << stats.pages_fetched_on_demand << " pushed="
                         << stats.pages_pushed;
    if (done) done(stats);
  }
};

// The post-copy stop: capture while sampling dirty sets, transfer kernel
// state (+ the hot set when it was not pre-copied), restore with the
// residue marked missing, resume, and hand off to the page server.
//
// `resident_is_dirty` selects which pages travel with the pod:
//   * post-copy: the pages dirtied during the hot window (the working
//     set); they cross the network during the stop.
//   * hybrid: the complement of the dirty set — those pages were already
//     pre-copied, so only kernel state crosses during the stop.
void PostCopyStop(pod::PodManager& source, pod::PodManager& target,
                  os::PodId id, const LiveMigrateOptions& options,
                  TimeNs started, LiveMigrateStats stats,
                  obs::SpanId op_span, bool resident_is_dirty,
                  LiveMigrator::DoneFn done) {
  sim::Simulator& sim = source.node().os().sim();
  os::Os& src_os = source.node().os();
  TimeNs stop_time = sim.Now();
  obs::SpanId downtime_span = sim.tracer().BeginSpan(
      "migrate", "migrate.downtime",
      obs::TraceAttrs{}
          .Agent(src_os.node_name())
          .Op(stats.op_id)
          .Pod(id)
          .Phase("stop-copy"));
  CheckpointEngine::StopPod(source, id);

  auto session = std::make_shared<PostCopySession>();
  session->sim = &sim;
  session->target = &target;
  session->pod_id = id;
  session->options = options;
  session->started = started;
  session->stop_time = stop_time;
  session->op_span = op_span;
  session->done = std::move(done);
  session->source = &source;
  session->source_node = source.node().name();
  session->target_node = target.node().name();
  if (!src_os.stack().interfaces().empty()) {
    session->source_ip = src_os.stack().interfaces().front().ip.value;
  }
  if (!target.node().os().stack().interfaces().empty()) {
    session->target_ip =
        target.node().os().stack().interfaces().front().ip.value;
  }

  // Sample per-process dirty sets and freeze the full image BEFORE the
  // capture (capture resets the dirty baseline).
  std::map<os::Pid, std::set<std::uint64_t>> resident;
  for (os::Pid pid : src_os.PodProcesses(id)) {
    os::Process* proc = src_os.FindProcess(pid);
    if (proc == nullptr) continue;
    os::Pid vpid = source.ToVirtualPid(id, pid);
    const std::set<std::uint64_t>& dirty = proc->memory().dirty_pages();
    os::MemorySnapshot snap = proc->memory().Snapshot();
    std::set<std::uint64_t>& keep = resident[vpid];
    std::set<std::uint64_t>& miss = session->residue[vpid];
    for (const auto& [index, page] : snap.pages()) {
      bool is_dirty = dirty.count(index) != 0;
      if (is_dirty == resident_is_dirty) {
        keep.insert(index);
      } else {
        miss.insert(index);
      }
    }
    session->remaining += miss.size();
    session->frozen.emplace(vpid, std::move(snap));
  }

  PodCheckpoint ck = CheckpointEngine::CapturePod(source, id);
  std::uint64_t resident_pages = 0;
  for (ProcessRecord& p : ck.processes) {
    const std::set<std::uint64_t>& keep = resident[p.vpid];
    std::erase_if(p.pages, [&keep](const PageRecord& page) {
      return keep.count(page.page_index) == 0;
    });
    resident_pages += p.pages.size();
  }
  // Split the filtered image into the bare kernel structures (registers,
  // fd tables, connections — always cross during the stop) and the
  // resident page records (payload + per-page headers). Hybrid's
  // resident pages already crossed during its pre-copy round, so only
  // post-copy's hot set pays for its page records here.
  std::uint64_t resident_wire = resident_pages * kRawPageRecordBytes;
  std::uint64_t bare_kernel = ck.RawImageBytes() - resident_wire;
  stats.pages_total = resident_pages + session->remaining;
  stats.pages_resident_at_resume = resident_pages;
  // Either way the target must learn which pages are NOT coming — the
  // missing-page directory, one page index per residue page — before it
  // can resume and fault on them.
  stats.final_bytes += bare_kernel +
                       sizeof(std::uint64_t) * session->remaining +
                       (resident_is_dirty ? resident_wire : 0);
  DurationNs transfer = TransferTime(stats.final_bytes, options);

  if (options.test_resume_both_sides) {
    // Breaking mutation: the source keeps its (running!) copy.
    CheckpointEngine::ResumePod(source, id);
  } else {
    source.DestroyPod(id);
  }
  source.node().stack().WatchDrops(ck.ip);  // see KickStopCopyDrops

  sim.Schedule(transfer, [session, ck = std::move(ck), stats,
                          downtime_span]() mutable {
    pod::PodManager& tgt = *session->target;
    sim::Simulator& sim2 = tgt.node().os().sim();
    os::Os& os = tgt.node().os();
    os::PodId restored = CheckpointEngine::RestorePod(tgt, ck);
    for (const ProcessRecord& p : ck.processes) {
      os::Pid real = tgt.ToRealPid(restored, p.vpid);
      if (real == os::kNoPid) continue;
      os::Process* proc = os.FindProcess(real);
      if (proc == nullptr) continue;
      session->real_pid[p.vpid] = real;
      for (std::uint64_t page : session->residue[p.vpid]) {
        proc->memory().MarkMissing(page);
      }
      os::Pid vpid = p.vpid;
      os.SetPageFaultHandler(real, [session, vpid](std::uint64_t page) {
        session->OnFault(vpid, page);
      });
    }
    CheckpointEngine::ResumePod(tgt, restored);
    KickStopCopyDrops(*session->source, tgt, ck.ip);
    stats.pod = restored;
    stats.downtime = sim2.Now() - session->stop_time;
    sim2.tracer().EndSpan(downtime_span);
    sim2.tracer().Instant("migrate", "migrate.postcopy.resume",
                          obs::TraceAttrs{}
                              .Op(stats.op_id)
                              .Pod(restored)
                              .Arg("resident",
                                   stats.pages_resident_at_resume)
                              .Arg("residue", session->remaining));
    session->stats = stats;
    if (session->remaining == 0) {
      session->Finish();
    } else {
      session->SchedulePush();
    }
  });
}

// One pre-copy round; calls `stop` (with stats.final_bytes set to the
// dirty bytes observed at the stop decision) once the dirty set is small
// enough or the round limit hits.
void PrecopyRound(pod::PodManager& source, pod::PodManager& target,
                  os::PodId id, LiveMigrateOptions options, TimeNs started,
                  LiveMigrateStats stats,
                  std::function<void(LiveMigrateStats)> stop) {
  sim::Simulator& sim = source.node().os().sim();
  // Copy this round's pages while the pod runs: round 1 copies the whole
  // resident set; later rounds copy what the previous round dirtied.
  std::uint64_t round_bytes;
  if (stats.rounds == 0) {
    SweepDirtyBytes(source, id);  // start the first dirty window
    round_bytes = ResidentBytes(source, id);
  } else {
    round_bytes = SweepDirtyBytes(source, id);
  }
  stats.rounds += 1;
  stats.precopy_bytes += round_bytes;
  DurationNs transfer = TransferTime(round_bytes, options);
  stats.round_breakdown.push_back(MigrateRound{round_bytes, transfer});
  sim.Schedule(transfer, [&source, &target, id, options, started, stats,
                          stop = std::move(stop)]() mutable {
    if (source.Find(id) == nullptr) return;  // pod vanished mid-migration
    // Peek at what got dirtied while this round was in flight.
    std::uint64_t dirty_now = 0;
    os::Os& os = source.node().os();
    for (os::Pid pid : os.PodProcesses(id)) {
      os::Process* proc = os.FindProcess(pid);
      if (proc != nullptr) {
        dirty_now += proc->memory().dirty_pages().size() * os::kPageSize;
      }
    }
    if (dirty_now > options.stop_threshold_bytes &&
        stats.rounds < options.max_rounds) {
      PrecopyRound(source, target, id, options, started, stats,
                   std::move(stop));
      return;
    }
    stats.final_bytes = dirty_now;
    stop(stats);
  });
}

}  // namespace

void LiveMigrator::Migrate(pod::PodManager& source,
                           pod::PodManager& target, os::PodId pod,
                           const LiveMigrateOptions& options, DoneFn done) {
  CRUZ_CHECK(source.Find(pod) != nullptr, "Migrate: no such pod");
  sim::Simulator& sim = source.node().os().sim();
  LiveMigrateStats stats;
  stats.mode = MigrateMode::kPreCopy;
  stats.op_id = NextMigrateOpId(sim);
  obs::SpanId op_span = BeginOpSpan(source, stats.mode, stats.op_id, pod);
  TimeNs started = sim.Now();
  PrecopyRound(source, target, pod, options, started, stats,
               [&source, &target, pod, options, started, op_span,
                done = std::move(done)](LiveMigrateStats s) mutable {
                 FinalPhase(source, target, pod, options, started,
                            std::move(s), op_span, std::move(done));
               });
}

void LiveMigrator::StopAndCopy(pod::PodManager& source,
                               pod::PodManager& target, os::PodId pod,
                               const LiveMigrateOptions& options,
                               DoneFn done) {
  CRUZ_CHECK(source.Find(pod) != nullptr, "StopAndCopy: no such pod");
  sim::Simulator& sim = source.node().os().sim();
  LiveMigrateStats stats;
  stats.mode = MigrateMode::kStopAndCopy;
  stats.op_id = NextMigrateOpId(sim);
  obs::SpanId op_span = BeginOpSpan(source, stats.mode, stats.op_id, pod);
  TimeNs started = sim.Now();
  stats.final_bytes = ResidentBytes(source, pod);
  FinalPhase(source, target, pod, options, started, std::move(stats),
             op_span, std::move(done));
}

void LiveMigrator::PostCopy(pod::PodManager& source,
                            pod::PodManager& target, os::PodId pod,
                            const LiveMigrateOptions& options, DoneFn done) {
  CRUZ_CHECK(source.Find(pod) != nullptr, "PostCopy: no such pod");
  sim::Simulator& sim = source.node().os().sim();
  LiveMigrateStats stats;
  stats.mode = MigrateMode::kPostCopy;
  stats.op_id = NextMigrateOpId(sim);
  obs::SpanId op_span = BeginOpSpan(source, stats.mode, stats.op_id, pod);
  TimeNs started = sim.Now();
  // Hot-set observation window: clear the dirty tracking, let the pod run
  // briefly, and take what it dirtied as the working-set estimate.
  SweepDirtyBytes(source, pod);
  sim.Schedule(options.hot_window, [&source, &target, pod, options, started,
                                    stats, op_span,
                                    done = std::move(done)]() mutable {
    if (source.Find(pod) == nullptr) return;  // pod vanished
    PostCopyStop(source, target, pod, options, started, std::move(stats),
                 op_span, /*resident_is_dirty=*/true, std::move(done));
  });
}

void LiveMigrator::Hybrid(pod::PodManager& source, pod::PodManager& target,
                          os::PodId pod, const LiveMigrateOptions& options,
                          DoneFn done) {
  CRUZ_CHECK(source.Find(pod) != nullptr, "Hybrid: no such pod");
  sim::Simulator& sim = source.node().os().sim();
  LiveMigrateStats stats;
  stats.mode = MigrateMode::kHybrid;
  stats.op_id = NextMigrateOpId(sim);
  obs::SpanId op_span = BeginOpSpan(source, stats.mode, stats.op_id, pod);
  TimeNs started = sim.Now();
  PrecopyRound(source, target, pod, options, started, stats,
               [&source, &target, pod, options, started,
                op_span, done = std::move(done)](LiveMigrateStats s) mutable {
                 // The dirty remainder is demand-paged, not stop-copied.
                 s.final_bytes = 0;
                 PostCopyStop(source, target, pod, options, started,
                              std::move(s), op_span,
                              /*resident_is_dirty=*/false, std::move(done));
               });
}

void LiveMigrator::MigrateWithMode(pod::PodManager& source,
                                   pod::PodManager& target, os::PodId pod,
                                   MigrateMode mode,
                                   const LiveMigrateOptions& options,
                                   DoneFn done) {
  switch (mode) {
    case MigrateMode::kStopAndCopy:
      StopAndCopy(source, target, pod, options, std::move(done));
      return;
    case MigrateMode::kPreCopy:
      Migrate(source, target, pod, options, std::move(done));
      return;
    case MigrateMode::kPostCopy:
      PostCopy(source, target, pod, options, std::move(done));
      return;
    case MigrateMode::kHybrid:
      Hybrid(source, target, pod, options, std::move(done));
      return;
  }
}

}  // namespace cruz::ckpt
