// Mode-differential live-migration tests (see tests/migrate_harness.h).
//
// For every seed, the same deterministic workload is migrated under all
// four MigrateModes; a correct migration is invisible to the
// application, so the four final memory images must be bit-identical —
// to each other AND to a plain-C++ reference model of the workload.
// Downtime must be ordered the way the modes are designed to order it,
// and the post-copy page accounting must balance exactly: no page lost,
// none served after the source released its image.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "apps/programs.h"
#include "ckpt/live_migrate.h"
#include "coord/message.h"
#include "migrate_harness.h"

namespace cruz::ckpt {
namespace {

using testing::ModeRun;
using testing::ProfileFromSeed;
using testing::RunScribblerMigration;
using testing::ScribProfile;

// The ckpt library encodes page-channel messages by raw wire byte so it
// does not have to link against coord; pin the bytes to the enum here,
// where both headers are visible.
static_assert(kPageRequestMsgByte ==
              static_cast<std::uint8_t>(coord::MsgType::kPageRequest));
static_assert(kPageResponseMsgByte ==
              static_cast<std::uint8_t>(coord::MsgType::kPageResponse));

constexpr int kSeeds = 24;

// Short hot-set window: the post-copy stop moves at most
// hot_window / 5us + a couple of pages, strictly below the >= 48-page
// pool every pre-copy final round re-dirties.
LiveMigrateOptions HarnessOptions() {
  LiveMigrateOptions options;
  options.hot_window = 200 * kMicrosecond;
  return options;
}

struct SeedMatrix {
  ScribProfile profile;
  std::map<MigrateMode, ModeRun> runs;
};

SeedMatrix RunAllModes(std::uint64_t seed) {
  SeedMatrix m;
  m.profile = ProfileFromSeed(seed);
  for (MigrateMode mode :
       {MigrateMode::kStopAndCopy, MigrateMode::kPreCopy,
        MigrateMode::kPostCopy, MigrateMode::kHybrid}) {
    m.runs[mode] = RunScribblerMigration(m.profile, mode, HarnessOptions());
  }
  return m;
}

TEST(LiveMigrateModes, AllModesProduceIdenticalOutcomes) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SeedMatrix m = RunAllModes(seed);
    cruz::Bytes args = testing::ScribblerArgs(m.profile.scribble_seed,
                                              m.profile.iterations,
                                              m.profile.pool_pages);
    testing::ScribExpectation expected =
        testing::ExpectedScribblerState(m.profile, args);

    for (const auto& [mode, run] : m.runs) {
      SCOPED_TRACE(MigrateModeName(mode));
      ASSERT_TRUE(run.migrated);
      ASSERT_TRUE(run.completed);
      // Exactly one running copy: gone from the source, live on target.
      EXPECT_TRUE(run.source_empty);
      // App-visible output: the workload ran to completion and computed
      // the same checksum it computes on an unmigrated machine.
      EXPECT_EQ(run.count, m.profile.iterations);
      EXPECT_EQ(run.checksum, expected.checksum);
      // Bit-identical final memory image vs the reference model (which
      // also makes all four modes identical to each other).
      EXPECT_EQ(run.image, expected.image);
      EXPECT_EQ(run.stats.mode, mode);
      EXPECT_GT(run.stats.downtime, 0);
    }

    // Downtime ordering is the whole point of the mode ladder. The
    // scribbler writes continuously through every migration, so the
    // inequalities are strict: post-copy moves < 48 hot pages where
    // pre-copy's final round moves the whole >= 48-page working set,
    // and stop-and-copy moves ballast too.
    const ModeRun& stop = m.runs[MigrateMode::kStopAndCopy];
    const ModeRun& pre = m.runs[MigrateMode::kPreCopy];
    const ModeRun& post = m.runs[MigrateMode::kPostCopy];
    const ModeRun& hybrid = m.runs[MigrateMode::kHybrid];
    EXPECT_LT(post.stats.downtime, pre.stats.downtime);
    EXPECT_LT(pre.stats.downtime, stop.stats.downtime);
    // Hybrid's stop transfers kernel state only — the shortest of all.
    EXPECT_LE(hybrid.stats.downtime, post.stats.downtime);

    // Page accounting: nothing lost, nothing served after release.
    for (const ModeRun* r : {&post, &hybrid}) {
      EXPECT_EQ(r->stats.pages_resident_at_resume +
                    r->stats.pages_fetched_on_demand + r->stats.pages_pushed,
                r->stats.pages_total);
      EXPECT_EQ(r->stats.late_serves, 0u);
      // Fault-free channel: nothing times out. (duplicate_fills_dropped
      // may be nonzero even here — a background push can race a demand
      // fetch — but duplicates are idempotent, which the image equality
      // above already proved.)
      EXPECT_EQ(r->stats.requests_retransmitted, 0u);
      EXPECT_GT(r->stats.pages_total, 0u);
    }
    // Post-copy pays for its short stop with demand-fetch degradation;
    // the stop-bounded modes have none by construction.
    EXPECT_EQ(stop.stats.degradation, 0);
    EXPECT_EQ(pre.stats.degradation, 0);
    EXPECT_GT(post.stats.pages_fetched_on_demand +
                  post.stats.pages_pushed,
              0u);
    // Pre-copy did iterative rounds; its per-round breakdown is filled.
    EXPECT_EQ(pre.stats.round_breakdown.size(),
              static_cast<std::size_t>(pre.stats.rounds));
    EXPECT_GE(pre.stats.rounds, 1);
    EXPECT_GE(hybrid.stats.rounds, 1);
  }
}

// A genuinely streaming pod — an unbounded TCP sender plus a scribbler
// that never stops writing — migrated under each stop-bounded mode plus
// post-copy. The write stream never pauses, so the downtime ladder is
// strict, and the TCP stream must keep flowing on the target.
TEST(LiveMigrateModes, StreamingWorkloadDowntimeLadderIsStrict) {
  testing::RegisterScribbler();
  std::map<MigrateMode, LiveMigrateStats> stats;
  for (MigrateMode mode :
       {MigrateMode::kStopAndCopy, MigrateMode::kPreCopy,
        MigrateMode::kPostCopy}) {
    ClusterConfig config;
    config.num_nodes = 3;
    Cluster c(config);
    net::Ipv4Address sink_ip = c.node(2).os().stack().interfaces()[0].ip;
    c.node(2).os().Spawn("cruz.stream_receiver",
                         apps::StreamReceiverArgs(7000));
    c.sim().RunFor(5 * kMillisecond);
    os::PodId id = c.CreatePod(0, "streamer");
    os::Pid sender_vpid = c.pods(0).SpawnInPod(
        id, "cruz.stream_sender", apps::StreamSenderArgs(sink_ip, 7000, 0));
    os::Pid scrib_vpid = c.pods(0).SpawnInPod(
        id, "harness.scribbler",
        testing::ScribblerArgs(7, std::uint64_t{1} << 40, 96));
    // Ballast so stop-and-copy has real bytes to move during the stop.
    os::Process* scrib =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, scrib_vpid));
    cruz::Bytes page(os::kPageSize, 0x37);
    for (std::uint64_t i = 0; i < 1024; ++i) {
      scrib->memory().InstallPage(testing::kScribBallastPage + i, page);
    }
    c.sim().RunFor(20 * kMillisecond);
    bool done = false;
    LiveMigrator::MigrateWithMode(c.pods(0), c.pods(1), id, mode,
                                  HarnessOptions(),
                                  [&](const LiveMigrateStats& s) {
                                    stats[mode] = s;
                                    done = true;
                                  });
    ASSERT_TRUE(c.sim().RunWhile([&] { return done; },
                                 c.sim().Now() + 600 * kSecond));
    // The stream keeps flowing after migration (TCP recovers from the
    // blackout via retransmission; give it a generous window).
    os::Process* moved =
        c.node(1).os().FindProcess(c.pods(1).ToRealPid(id, sender_vpid));
    ASSERT_NE(moved, nullptr);
    c.sim().RunWhile([&] { return !moved->memory().HasMissingPages(); },
                     c.sim().Now() + 600 * kSecond);
    std::uint64_t sent = apps::ReadStreamStatus(*moved).bytes;
    c.sim().RunFor(2 * kSecond);
    EXPECT_GT(apps::ReadStreamStatus(*moved).bytes, sent);
  }
  EXPECT_LT(stats[MigrateMode::kPostCopy].downtime,
            stats[MigrateMode::kPreCopy].downtime);
  EXPECT_LT(stats[MigrateMode::kPreCopy].downtime,
            stats[MigrateMode::kStopAndCopy].downtime);
}

// (d) Resume-time kick across a migration: requests an echo client sends
// while the server pod is stopped are dropped at the source once its VIF
// is gone. The source records them and the target kicks exactly those
// connections at resume, so every mode recovers without an RTO.
TEST(LiveMigrateModes, RequestDuringStopCompletesWithoutRto) {
  for (MigrateMode mode :
       {MigrateMode::kStopAndCopy, MigrateMode::kPreCopy,
        MigrateMode::kPostCopy, MigrateMode::kHybrid}) {
    SCOPED_TRACE(MigrateModeName(mode));
    ClusterConfig config;
    config.num_nodes = 3;
    Cluster c(config);
    os::PodId id = c.CreatePod(0, "echo");
    net::Ipv4Address server_ip = c.pods(0).Find(id)->ip;
    os::Pid server_vpid = c.pods(0).SpawnInPod(id, "cruz.echo_server",
                                               apps::EchoServerArgs(7000));
    // Ballast so the stop has real bytes to move.
    os::Process* server =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, server_vpid));
    cruz::Bytes page(os::kPageSize, 0x37);
    for (std::uint64_t i = 0; i < 512; ++i) {
      server->memory().InstallPage(0x4000 + i, page);
    }
    c.sim().RunFor(5 * kMillisecond);
    os::Pid client = c.node(2).os().Spawn(
        "cruz.echo_client",
        apps::EchoClientArgs(server_ip, 7000, 1u << 30, 64,
                             100 * kMicrosecond));
    auto done_requests = [&] {
      return apps::ReadEchoClientStatus(*c.node(2).os().FindProcess(client))
          .messages_done;
    };
    c.sim().RunFor(20 * kMillisecond);
    ASSERT_GT(done_requests(), 0u);

    bool done = false;
    LiveMigrateStats stats;
    LiveMigrator::MigrateWithMode(c.pods(0), c.pods(1), id, mode,
                                  HarnessOptions(),
                                  [&](const LiveMigrateStats& s) {
                                    stats = s;
                                    done = true;
                                  });
    ASSERT_TRUE(c.sim().RunWhile([&] { return done; },
                                 c.sim().Now() + 600 * kSecond));
    std::uint64_t at_done = done_requests();
    c.sim().RunFor(2 * kMillisecond);
    EXPECT_GT(done_requests(), at_done);
    c.sim().RunFor(500 * kMillisecond);
    EXPECT_EQ(c.sim().metrics().counter("tcp.rto_total").value(), 0u);
    if (mode == MigrateMode::kStopAndCopy) {
      // The stop spans many request intervals: some request was lost.
      EXPECT_GT(stats.downtime, 10 * kMillisecond);
      EXPECT_GT(c.sim().metrics().counter("tcp.kicks_total").value(), 0u);
    }
  }
}

}  // namespace
}  // namespace cruz::ckpt
