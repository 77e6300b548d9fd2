// End-to-end assertions on the exported trace of a coordinated
// checkpoint: the Fig. 2 phase ordering (freeze strictly precedes
// commit, local saves happen inside freeze, continues inside commit),
// the communication-silence guarantee (no pod TCP traffic delivered
// while the packet filters are up), injected faults appearing on the
// same timeline, and byte-identical exports across same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "golden_util.h"
#include "migrate_harness.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

using obs::TraceEvent;
using obs::TraceQuery;

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

// Fig. 2: the blocking protocol's phases, read back from the trace. The
// freeze span (checkpoint request through last <done>) must fully close
// before the commit span (first <continue> through last <continue-done>)
// opens, every agent's save span must sit inside freeze, and every
// continue span inside commit.
TEST(TracePipeline, Fig2PhaseOrderingFromTrace) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto stats =
      c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)});
  ASSERT_TRUE(stats.success);
  ASSERT_NE(stats.op_id, 0u);

  TraceQuery q(c.sim().tracer());
  const TraceEvent* op = q.First(
      TraceQuery::Filter{}.Name("coord.op.checkpoint").Op(stats.op_id));
  const TraceEvent* freeze = q.First(
      TraceQuery::Filter{}.Name("coord.phase.freeze").Op(stats.op_id));
  const TraceEvent* commit = q.First(
      TraceQuery::Filter{}.Name("coord.phase.commit").Op(stats.op_id));
  ASSERT_NE(op, nullptr);
  ASSERT_NE(freeze, nullptr);
  ASSERT_NE(commit, nullptr);

  // Phase ordering: freeze ends before commit begins; both lie inside
  // the operation span.
  EXPECT_LE(freeze->end_ts(), commit->ts);
  EXPECT_TRUE(TraceQuery::Within(*freeze, *op));
  EXPECT_TRUE(TraceQuery::Within(*commit, *op));

  // One save and one continue span per member, contained in their phase.
  std::vector<const TraceEvent*> saves =
      q.Select(TraceQuery::Filter{}.Name("agent.save").Op(stats.op_id));
  std::vector<const TraceEvent*> continues = q.Select(
      TraceQuery::Filter{}.Name("agent.continue").Op(stats.op_id));
  ASSERT_EQ(saves.size(), 2u);
  ASSERT_EQ(continues.size(), 2u);
  for (const TraceEvent* save : saves) {
    EXPECT_TRUE(TraceQuery::Within(*save, *freeze))
        << "agent.save for " << save->attrs.agent << " outside freeze";
  }
  for (const TraceEvent* cont : continues) {
    EXPECT_TRUE(TraceQuery::Within(*cont, *commit))
        << "agent.continue for " << cont->attrs.agent << " outside commit";
  }

  // Stop-the-world downtime is the save itself: the span sits inside
  // freeze and closes with the local checkpoint.
  std::vector<const TraceEvent*> downtimes = q.Select(
      TraceQuery::Filter{}.Name("agent.downtime").Op(stats.op_id));
  ASSERT_EQ(downtimes.size(), 2u);
  for (const TraceEvent* dt : downtimes) {
    EXPECT_TRUE(TraceQuery::Within(*dt, *freeze));
  }

  // Fig. 2 message complexity on the trace: 2 coordinator sends per
  // member (<checkpoint>, <continue>) and one recv per reply.
  EXPECT_EQ(q.Count(TraceQuery::Filter{}
                        .Name("coord.msg.send")
                        .Op(stats.op_id)),
            4u);
  EXPECT_GE(q.Count(TraceQuery::Filter{}
                        .Name("coord.msg.recv")
                        .Op(stats.op_id)),
            4u);
}

// While the packet filters are up (between every agent's filter install
// and the first resume), no TCP segment may be delivered to a pod
// connection: the stall in Fig. 6 is silence, not queueing at the app.
TEST(TracePipeline, NoPodTrafficDeliveredWhileFiltersUp) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);

  os::PodId recv_pod = c.CreatePod(1, "recv");
  net::Ipv4Address recv_ip = c.pods(1).Find(recv_pod)->ip;
  os::Pid recv_vpid = c.pods(1).SpawnInPod(
      recv_pod, "cruz.stream_receiver", apps::StreamReceiverArgs(9100));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId send_pod = c.CreatePod(0, "send");
  c.pods(0).SpawnInPod(send_pod, "cruz.stream_sender",
                       apps::StreamSenderArgs(recv_ip, 9100, 8 * kMiB));
  std::string pod_ip = recv_ip.ToString();

  auto delivered = [&] {
    os::Pid real = c.pods(1).ToRealPid(recv_pod, recv_vpid);
    os::Process* proc = c.node(1).os().FindProcess(real);
    return proc != nullptr ? apps::ReadStreamStatus(*proc).bytes : 0ull;
  };
  ASSERT_TRUE(c.sim().RunWhile([&] { return delivered() > 512 * 1024; },
                               c.sim().Now() + 60 * kSecond));

  // Record per-segment instants only around the checkpoint window.
  c.sim().tracer().set_verbose(true);
  auto stats = c.RunCheckpoint(
      {c.MemberFor(0, send_pod), c.MemberFor(1, recv_pod)});
  ASSERT_TRUE(stats.success);
  // Run until the sender's retransmission recovers and fresh segments
  // reach the receiver again (new deliveries imply new tcp.rx events).
  std::uint64_t at_ckpt = delivered();
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return delivered() > at_ckpt + 64 * 1024; },
      c.sim().Now() + 30 * kSecond));
  c.sim().tracer().set_verbose(false);

  TraceQuery q(c.sim().tracer());
  std::vector<const TraceEvent*> installs = q.Select(
      TraceQuery::Filter{}.Name("agent.filter.install").Op(stats.op_id));
  std::vector<const TraceEvent*> resumes = q.Select(
      TraceQuery::Filter{}.Name("agent.resume").Op(stats.op_id));
  ASSERT_EQ(installs.size(), 2u);
  ASSERT_EQ(resumes.size(), 2u);
  TimeNs filters_up = 0, first_resume = ~TimeNs{0};
  for (const TraceEvent* e : installs)
    filters_up = std::max(filters_up, e->ts);
  for (const TraceEvent* e : resumes)
    first_resume = std::min(first_resume, e->ts);
  ASSERT_LT(filters_up, first_resume);

  // Partition the pod connection's rx instants around the silence window.
  std::size_t before = 0, during = 0, after = 0;
  for (const TraceEvent& e : q.events()) {
    if (e.name != "tcp.rx" ||
        e.attrs.conn.find(pod_ip) == std::string::npos) {
      continue;
    }
    if (e.ts <= filters_up) {
      ++before;
    } else if (e.ts < first_resume) {
      ++during;
    } else {
      ++after;
    }
  }
  // Verbose capture saw live traffic on both sides of the window, and
  // absolute silence inside it.
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_EQ(during, 0u);
}

// A chaos run's injected faults land on the same timeline as the
// protocol events they perturb, and retransmissions show up as
// coordinator instants.
TEST(TracePipeline, FaultEventsShareTheTimeline) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(777);
  plan.ArmMessageLoss(0.4);
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  coord::Coordinator::Options options;
  options.retransmit_interval = 200 * kMillisecond;
  options.timeout = 60 * kSecond;
  auto stats =
      c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  ASSERT_TRUE(stats.success);

  TraceQuery q(c.sim().tracer());
  std::size_t drops = q.Count(TraceQuery::Filter{}.Name("fault.msg-drop"));
  ASSERT_EQ(drops, plan.events().size());
  ASSERT_GT(drops, 0u);
  // Drops were repaired by retransmissions, and both event kinds share
  // one clock: the first retransmit can only follow a preceding drop
  // (nothing else leaves a reply outstanding in this scenario).
  std::vector<const TraceEvent*> rexmits =
      q.Select(TraceQuery::Filter{}.Name("coord.retransmit"));
  ASSERT_FALSE(rexmits.empty());
  const TraceEvent* first_drop =
      q.First(TraceQuery::Filter{}.Name("fault.msg-drop"));
  EXPECT_LE(first_drop->ts, rexmits.front()->ts);
  EXPECT_EQ(c.sim().metrics().counter("coord.retransmits_total").value(),
            rexmits.size());
}

// The determinism contract behind the bench regression gate: two runs of
// the same seeded scenario produce byte-identical trace exports and
// metrics dumps.
TEST(TracePipeline, SameSeedRunsExportIdenticalTraces) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    config.num_nodes = 3;
    Cluster c(config);
    fault::FaultPlan plan(seed + 5);
    plan.ArmMessageLoss(0.2);
    c.ArmFaults(plan);
    std::vector<coord::Coordinator::Member> members;
    for (std::size_t n = 0; n < 3; ++n) {
      members.push_back(c.MemberFor(
          n, SpawnCounterPod(c, n, "p" + std::to_string(n))));
    }
    c.sim().RunFor(10 * kMillisecond);
    coord::Coordinator::Options options;
    options.retransmit_interval = 200 * kMillisecond;
    options.timeout = 60 * kSecond;
    c.RunCheckpoint(members, options);
    struct Exports {
      std::string chrome, jsonl, metrics;
    } out{c.sim().tracer().ExportChromeJson(),
          c.sim().tracer().ExportJsonl(),
          c.sim().metrics().ExportJson()};
    return out;
  };

  auto first = run(1234);
  auto second = run(1234);
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.metrics, second.metrics);
  // Sanity: the export is substantial, not trivially empty-equal.
  EXPECT_GT(first.chrome.size(), 1000u);
  EXPECT_NE(first.jsonl.find("coord.op.checkpoint"), std::string::npos);

  auto other = run(4321);
  EXPECT_NE(first.jsonl, other.jsonl);
}

// Cross-kernel golden: a fixed-seed checkpoint/restart scenario whose
// Chrome-trace and JSONL exports are committed byte-for-byte. Unlike
// SameSeedRunsExportIdenticalTraces (which only proves two runs of the
// *same* binary agree), this pins the output across rewrites of the
// simulator kernel itself — the event-queue/pooling perf pass must
// change zero bytes of it. Verbose per-segment capture is on so the
// highest-volume event class is covered too.
TEST(TracePipeline, GoldenCheckpointRestartExports) {
  ClusterConfig config;
  config.seed = 20260808;
  config.num_nodes = 3;
  Cluster c(config);
  c.sim().tracer().set_verbose(true);

  os::PodId counter = SpawnCounterPod(c, 0, "cnt");
  os::PodId recv_pod = c.CreatePod(2, "recv");
  net::Ipv4Address recv_ip = c.pods(2).Find(recv_pod)->ip;
  c.pods(2).SpawnInPod(recv_pod, "cruz.stream_receiver",
                       apps::StreamReceiverArgs(9200));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId send_pod = c.CreatePod(1, "send");
  c.pods(1).SpawnInPod(send_pod, "cruz.stream_sender",
                       apps::StreamSenderArgs(recv_ip, 9200, 192 * 1024));
  c.sim().RunFor(100 * kMillisecond);

  std::vector<coord::Coordinator::Member> members{
      c.MemberFor(0, counter), c.MemberFor(1, send_pod),
      c.MemberFor(2, recv_pod)};
  auto ckpt = c.RunCheckpoint(members);
  ASSERT_TRUE(ckpt.success);
  c.sim().RunFor(200 * kMillisecond);
  // Tear the pods down (simulated node failure aftermath) and roll the
  // whole ensemble back to the checkpoint.
  c.pods(0).DestroyPod(counter);
  c.pods(1).DestroyPod(send_pod);
  c.pods(2).DestroyPod(recv_pod);
  c.sim().RunFor(50 * kMillisecond);
  auto restart = c.RunRestart(members, ckpt.image_paths);
  ASSERT_TRUE(restart.success);
  c.sim().RunFor(100 * kMillisecond);

  cruz::testing::ExpectMatchesGolden("ckpt_restart_trace.jsonl",
                                     c.sim().tracer().ExportJsonl());
  cruz::testing::ExpectMatchesGolden("ckpt_restart_chrome.json",
                                     c.sim().tracer().ExportChromeJson());
}

// Tiered-store golden: a fixed-seed tiered generation checkpoint, its
// background netfs flush, the writer node failing, and a restart that
// finds no local copy on the new node and falls back to the ring
// partner's. Pins the ckpt.store.* / ckpt.generation.* vocabulary (and
// everything around it) byte-for-byte.
TEST(TracePipeline, GoldenTieredFallbackExports) {
  ClusterConfig config;
  config.seed = 20261020;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.tiered = true;
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  auto ckpt = c.RunGenerationCheckpoint(members, options);
  ASSERT_TRUE(ckpt.stats.success) << ckpt.stats.abort_reason;
  c.sim().RunFor(500 * kMillisecond);  // the background flush lands
  ASSERT_EQ(c.tiered().PendingFlushCount(), 0u);

  // Node 1 fails with its disk; pod a restarts on node 3, which holds no
  // copy, and resolves local -> partner (node 2 guards node 1's image).
  c.node(0).Fail();
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(2, a), c.MemberFor(1, b)}, options);
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  c.sim().RunFor(20 * kMillisecond);

  const std::string jsonl = c.sim().tracer().ExportJsonl();
  EXPECT_NE(jsonl.find("\"ckpt.store.flush\""), std::string::npos);
  EXPECT_NE(jsonl.find("local:miss,partner:ok"), std::string::npos);
  cruz::testing::ExpectMatchesGolden("tiered_fallback_trace.jsonl", jsonl);
}

// Post-copy migration golden: a fixed-seed scribbler pod migrated with
// demand paging + background push, exports pinned byte-for-byte. Two
// same-binary runs must agree exactly (determinism of the page-channel
// scheduling), and the committed golden pins it across kernel rewrites.
// Covers the migrate.op.*/migrate.downtime/migrate.postcopy.* span
// vocabulary end to end.
TEST(TracePipeline, GoldenPostCopyMigrationExports) {
  auto run = [] {
    ckpt::testing::RegisterScribbler();
    ClusterConfig config;
    config.seed = 20260808;
    config.num_nodes = 2;
    Cluster c(config);
    c.sim().tracer().set_verbose(true);
    ckpt::testing::ScribProfile profile;
    profile.scribble_seed = 11;
    profile.iterations = 4000;
    profile.pool_pages = 64;
    profile.ballast_pages = 128;
    profile.migrate_at = 3 * kMillisecond;
    ckpt::LiveMigrateOptions options;
    options.hot_window = 200 * kMicrosecond;
    os::PodId id = c.CreatePod(0, "scrib");
    c.pods(0).SpawnInPod(
        id, "harness.scribbler",
        ckpt::testing::ScribblerArgs(profile.scribble_seed,
                                     profile.iterations,
                                     profile.pool_pages));
    os::Process* scrib =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, 1));
    cruz::Bytes page(os::kPageSize, 0x42);
    for (std::uint64_t i = 0; i < profile.ballast_pages; ++i) {
      scrib->memory().InstallPage(ckpt::testing::kScribBallastPage + i,
                                  page);
    }
    c.sim().RunFor(profile.migrate_at);
    bool done = false;
    ckpt::LiveMigrator::PostCopy(c.pods(0), c.pods(1), id, options,
                                 [&](const ckpt::LiveMigrateStats&) {
                                   done = true;
                                 });
    EXPECT_TRUE(c.sim().RunWhile([&] { return done; },
                                 c.sim().Now() + 600 * kSecond));
    c.sim().RunFor(100 * kMillisecond);
    struct Exports {
      std::string chrome, jsonl;
    } out{c.sim().tracer().ExportChromeJson(),
          c.sim().tracer().ExportJsonl()};
    return out;
  };

  auto first = run();
  auto second = run();
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_NE(first.jsonl.find("migrate.op.post-copy"), std::string::npos);
  EXPECT_NE(first.jsonl.find("migrate.postcopy.fetch"), std::string::npos);
  EXPECT_NE(first.jsonl.find("migrate.postcopy.resume"), std::string::npos);
  cruz::testing::ExpectMatchesGolden("postcopy_migrate_trace.jsonl",
                                     first.jsonl);
  cruz::testing::ExpectMatchesGolden("postcopy_migrate_chrome.json",
                                     first.chrome);
}

}  // namespace
}  // namespace cruz
