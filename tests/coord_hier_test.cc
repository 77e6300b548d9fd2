// Hierarchical coordinator robustness (DESIGN.md §13): shard-head crash
// recovery, epoch fencing across root incarnations with live shard
// heads, malformed shard requests, the lying-middle-tier sabotage the
// gen-commit oracle exists to catch (see check_oracle_test.cc for the
// oracle side), roster fragmentation across the Ethernet MTU, and the
// recovery-matrix rows: exact message counts, lost aggregated replies,
// a silent agent, and a shard orphaned by a dead root.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "coord/agent.h"
#include "coord/message.h"
#include "cruz/cluster.h"
#include "fault/fault.h"

namespace cruz {
namespace {

constexpr std::uint8_t kCheckpointByte =
    static_cast<std::uint8_t>(coord::MsgType::kCheckpoint);

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

bool PodProcessLive(Cluster& c, std::size_t node, os::PodId pod) {
  os::Pid real = c.pods(node).ToRealPid(pod, 1);
  if (real == os::kNoPid) return false;
  os::Process* proc = c.node(node).os().FindProcess(real);
  return proc != nullptr && proc->state() == os::ProcessState::kLive;
}

std::vector<coord::Coordinator::Member> SpawnMembers(
    Cluster& c, std::size_t n, std::vector<os::PodId>* pods) {
  std::vector<coord::Coordinator::Member> members;
  for (std::size_t i = 0; i < n; ++i) {
    os::PodId pod = SpawnCounterPod(c, i, "p" + std::to_string(i));
    pods->push_back(pod);
    members.push_back(c.MemberFor(i, pod));
  }
  c.sim().RunFor(10 * kMillisecond);
  return members;
}

// A sub-coordinator that dies mid-checkpoint must not wedge the op or
// leak images: the root gives up on the silent shard and aborts (fencing
// every agent directly, so even the dead sub's shard resumes), and the
// restarted sub's journal recovery re-fences and re-reaps. Zero orphan
// bytes on any storage tier, and the cluster checkpoints cleanly again.
TEST(CoordHier, SubCrashMidCheckpointAbortsCleanlyWithoutOrphans) {
  ClusterConfig config;
  config.num_nodes = 6;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 6, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 3;  // shards: head node1 (0-2), head node4 (3-5)
  options.tiered = true;
  options.image_prefix = "/ckpt/subcrash";
  options.retransmit_interval = 500 * kMillisecond;
  options.max_retransmit_rounds = 3;

  bool finished = false;
  coord::Coordinator::OpStats stats;
  c.coordinator().Checkpoint(members, options, [&](const auto& s) {
    finished = true;
    stats = s;
  });
  // The second shard's sub-coordinator dies after forwarding to its
  // agents (their saves are in flight) but before aggregating <done>s.
  c.sim().Schedule(1 * kMillisecond,
                   [&] { c.shard_coordinator(3).Crash(); });
  c.sim().RunFor(30 * kSecond);

  ASSERT_TRUE(finished);
  EXPECT_FALSE(stats.success);
  EXPECT_FALSE(stats.abort_reason.empty());
  // The direct agent fencing in AbortOp resumed every pod, including the
  // crashed sub's shard.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(PodProcessLive(c, i, pods[i])) << "pod " << i;
  }
  // No orphan images on any tier: shared FS, local/partner disks, or
  // pending background flushes.
  EXPECT_TRUE(c.fs().List("/ckpt/subcrash/").empty());
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/subcrash/"), 0u);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);

  // The restarted sub replays its intent journal (abort + reap) and the
  // cluster is whole: the next hierarchical checkpoint commits.
  c.shard_coordinator(3).Reset();
  c.sim().RunFor(100 * kMillisecond);
  EXPECT_TRUE(c.fs().List("/ckpt/subcrash/").empty());
  auto retry = c.RunCheckpoint(members, options);
  EXPECT_TRUE(retry.success);
  EXPECT_EQ(retry.shard_count, 2u);
}

// Epoch fencing composes across the tree: a root that crashes mid-op and
// restarts resumes the fencing sequence, live sub-coordinators accept
// the new incarnation's higher epoch (superseding the stalled op), and a
// replayed stale-epoch shard request is silently dropped.
TEST(CoordHier, EpochFencingAcrossRootRestartWithLiveSubs) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  fault::FaultPlan plan(5);
  // Stall op 2: the 4th node's agent process dies on <checkpoint>, so
  // its shard can never aggregate a <shard-done>.
  plan.ArmAgentCrash("node4", kCheckpointByte);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 4, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 2;  // shards: head node1 (0-1), head node3 (2-3)
  options.retransmit_interval = 500 * kMillisecond;
  options.image_prefix = "/ckpt/fence";

  // Op 1 (epoch 1) succeeds: both subs have now observed epoch 1.
  auto first = c.RunCheckpoint(members, options);
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 1u);
  EXPECT_EQ(c.shard_coordinator(2).ops_served(), 1u);

  // Op 2 (epoch 2) stalls on the crashed agent; the root dies mid-op.
  c.ArmFaults(plan);
  bool finished = false;
  c.coordinator().Checkpoint(members, options,
                             [&](const auto&) { finished = true; });
  c.sim().RunFor(1 * kSecond);
  ASSERT_FALSE(finished);
  c.RestartCoordinator();
  EXPECT_TRUE(c.coordinator().recovery().had_incomplete);
  EXPECT_EQ(c.coordinator().recovery().epoch, 2u);
  EXPECT_EQ(c.coordinator().epoch(), 2u);  // fencing sequence resumes

  // Heal the crashed agent and run op 3 (epoch 3): the live subs accept
  // the higher epoch — superseding any shard state left from op 2 — and
  // the op commits.
  c.agent(3).Reset();
  c.sim().RunFor(100 * kMillisecond);
  auto third = c.RunCheckpoint(members, options);
  EXPECT_TRUE(third.success);
  EXPECT_EQ(third.epoch, 3u);
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 2u);

  // A replayed stale shard request (epoch 1, from a long-dead
  // incarnation) must be fenced: the sub stays idle and its shard's pod
  // keeps running.
  coord::CoordMessage stale;
  stale.type = coord::MsgType::kShardCheckpoint;
  stale.op_id = 99;
  stale.epoch = 1;
  coord::ShardMember sm;
  sm.agent_ip = c.node(0).ip().value;
  sm.pod = pods[0];
  sm.image_path = "/ckpt/fence/stale.img";
  stale.shard_members.push_back(sm);
  net::UdpDatagram dgram;
  dgram.src_port = coord::kCoordinatorPort;
  dgram.dst_port = coord::kShardPort;
  dgram.payload = stale.Encode();
  net::Ipv4Packet pkt;
  pkt.src = c.coordinator_node().ip();
  pkt.dst = c.node(0).ip();
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  c.coordinator_node().stack().SendIpv4(pkt);
  c.sim().RunFor(1 * kSecond);
  EXPECT_FALSE(c.shard_coordinator(0).busy());
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 2u);
  EXPECT_TRUE(PodProcessLive(c, 0, pods[0]));
  EXPECT_TRUE(c.fs().List("/ckpt/fence/stale").empty());
}

// A stray shard request with an empty roster is malformed: the shard head
// drops it like an undecodable datagram instead of throwing out of its
// UDP handler (which would take the whole simulation down). Its high
// epoch does not move the fence either — a real op at epoch 1 still runs.
TEST(CoordHier, EmptyRosterShardRequestIsDropped) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 4, &pods);

  coord::CoordMessage stray;
  stray.type = coord::MsgType::kShardCheckpoint;
  stray.op_id = 50;
  stray.epoch = 50;
  stray.op_timeout = 5 * kSecond;
  net::UdpDatagram dgram;
  dgram.src_port = coord::kCoordinatorPort;
  dgram.dst_port = coord::kShardPort;
  dgram.payload = stray.Encode();
  net::Ipv4Packet pkt;
  pkt.src = c.coordinator_node().ip();
  pkt.dst = c.node(0).ip();
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  c.coordinator_node().stack().SendIpv4(pkt);
  c.sim().RunFor(100 * kMillisecond);
  EXPECT_FALSE(c.shard_coordinator(0).busy());
  EXPECT_EQ(c.shard_coordinator(0).epoch(), 0u);

  coord::Coordinator::Options options;
  options.fan_out = 2;
  options.image_prefix = "/ckpt/stray";
  auto stats = c.RunCheckpoint(members, options);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 1u);
}

// The sabotage the gen-commit oracle exists to catch, at the protocol
// level: sub-coordinators that acknowledge upward without ever
// forwarding produce a "successful" op during which no agent saved
// anything — exactly the commit-without-saves shape the oracle flags
// (tests/check_oracle_test.cc proves the catch; this proves the lie is
// otherwise invisible to the root).
TEST(CoordHier, AckWithoutForwardCommitsWithZeroAgentSaves) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 4, &pods);
  c.shard_coordinator(0).set_test_ack_without_forward(true);
  c.shard_coordinator(2).set_test_ack_without_forward(true);

  coord::Coordinator::Options options;
  options.fan_out = 2;
  options.tiered = true;
  options.image_prefix = "/ckpt/lie";
  auto stats = c.RunCheckpoint(members, options);

  // The root believes the op committed...
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.shard_count, 2u);
  // ...but no agent ever heard about it and nothing was written.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.agent(i).checkpoints_served(), 0u) << "agent " << i;
  }
  EXPECT_TRUE(c.fs().List("/ckpt/lie/").empty());
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/lie/"), 0u);
}

// Roster fragmentation: a single shard of 40 members with long image
// paths exceeds the 1500-byte Ethernet MTU in both directions (the
// downward request roster and the upward tiered <shard-done> report).
// The stack does not IP-fragment — oversized frames are dropped at the
// NIC — so the coordination layer must split and reassemble.
TEST(CoordHier, FragmentedRosterAssemblesAcrossMtuLimit) {
  ClusterConfig config;
  config.num_nodes = 40;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 40, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 40;  // one shard: the full roster in one request
  options.tiered = true;
  options.image_prefix =
      "/ckpt/a-rather-long-prefix-that-pushes-the-roster-well-past-one-mtu";
  auto stats = c.RunCheckpoint(members, options);

  ASSERT_TRUE(stats.success);
  EXPECT_EQ(stats.shard_count, 1u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(c.agent(i).checkpoints_served(), 1u) << "agent " << i;
  }
  // Fragmentation overhead stays inside the documented O(N) envelope.
  EXPECT_LE(stats.total_messages, 6 * 40u);
  // Every member's tiered report made it back up: the root knows where
  // each of the 40 images landed.
  ASSERT_EQ(stats.replica_sets.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_FALSE(stats.replica_sets[i].empty()) << "member " << i;
  }
}

// Drops the first control message of one type, whoever sends it.
class DropFirstOfType : public fault::Injector {
 public:
  explicit DropFirstOfType(coord::MsgType type)
      : type_(static_cast<std::uint8_t>(type)) {}

  fault::MessageFate OnControlSend(const std::string&, std::uint32_t,
                                   std::uint8_t msg_type) override {
    fault::MessageFate fate;
    if (msg_type == type_ && !dropped_) {
      dropped_ = true;
      fate.drop = true;
    }
    return fate;
  }

  bool dropped() const { return dropped_; }

 private:
  std::uint8_t type_;
  bool dropped_ = false;
};

// The exact message count of a small blocking, unfragmented tree: 4 per
// member between each shard head and its agent, plus 4 per shard between
// the root and the shard head (request, <shard-done>, <shard-continue>,
// <shard-continue-done>). The root itself sends one request and one
// continue per shard.
TEST(CoordHier, SmallBlockingTreeCountsMessagesExactly) {
  ClusterConfig config;
  config.num_nodes = 6;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 6, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 3;
  options.image_prefix = "/ckpt/exact";
  auto stats = c.RunCheckpoint(members, options);

  ASSERT_TRUE(stats.success);
  EXPECT_EQ(stats.shard_count, 2u);
  EXPECT_EQ(stats.max_endpoint_fanout, 3u);
  EXPECT_EQ(stats.retransmits, 0u);
  EXPECT_EQ(stats.coordinator_messages, 4u);
  EXPECT_EQ(stats.total_messages, 4 * 6u + 4 * 2u);
}

// A lost aggregated reply is re-answered from the shard head's reply
// cache when the root retransmits: a lost <shard-done> while the shard
// op is still open, a lost <shard-continue-done> after the shard op has
// completed. Either way the op commits and the message total stays
// exact: the 32 of the loss-free tree plus the one retransmitted
// request. The re-sent reply takes the place of the dropped copy, which
// never arrives and so is never counted.
TEST(CoordHier, LostShardReplyIsReansweredFromReplyCache) {
  for (coord::MsgType lost : {coord::MsgType::kShardDone,
                              coord::MsgType::kShardContinueDone}) {
    SCOPED_TRACE(coord::MsgTypeName(lost));
    ClusterConfig config;
    config.num_nodes = 6;
    Cluster c(config);
    std::vector<os::PodId> pods;
    auto members = SpawnMembers(c, 6, &pods);
    DropFirstOfType drop(lost);
    for (std::size_t i = 0; i < 6; ++i) {
      c.shard_coordinator(i).set_fault_injector(&drop);
    }

    coord::Coordinator::Options options;
    options.fan_out = 3;
    options.image_prefix = "/ckpt/lost";
    options.retransmit_interval = 500 * kMillisecond;
    auto stats = c.RunCheckpoint(members, options);

    ASSERT_TRUE(drop.dropped());
    ASSERT_TRUE(stats.success);
    EXPECT_EQ(stats.retransmits, 1u);
    EXPECT_EQ(stats.total_messages, 4 * 6u + 4 * 2u + 1u);
    // Each shard ran exactly once: the retransmit was answered from the
    // cache, not by re-running the shard.
    EXPECT_EQ(c.shard_coordinator(0).ops_served(), 1u);
    EXPECT_EQ(c.shard_coordinator(3).ops_served(), 1u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(c.agent(i).checkpoints_served(), 1u) << "agent " << i;
    }
  }
}

// A silent agent: its shard head retransmits to it until the round cap,
// then aborts the shard and reports <shard-failed>. The root aborts the
// whole op long before its own timeout, and no image survives on any
// tier.
TEST(CoordHier, SilentAgentHitsShardRetryCapAndRootAborts) {
  ClusterConfig config;
  config.num_nodes = 6;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 6, &pods);
  c.agent(4).Crash();  // shard 2 (head node4: members 3-5) never hears back

  coord::Coordinator::Options options;
  options.fan_out = 3;
  options.tiered = true;
  options.image_prefix = "/ckpt/silent";
  auto stats = c.RunCheckpoint(members, options);

  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.abort_reason,
            "shard " + std::to_string(c.node(3).ip().value) + " failed");
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_LT(stats.full_latency, 30 * kSecond);
  EXPECT_FALSE(c.shard_coordinator(3).busy());
  c.sim().RunFor(1 * kSecond);
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 4) continue;
    EXPECT_TRUE(PodProcessLive(c, i, pods[i])) << "pod " << i;
  }
  EXPECT_TRUE(c.fs().List("/ckpt/silent/").empty());
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/silent/"), 0u);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
}

// A root destroyed mid-op (no successor takes over) leaves its shard
// heads waiting for a <shard-continue> that never comes, with their
// pods stopped. Each shard head self-cleans at the root's op timeout
// plus 2 s: it aborts its shard, the pods run again and the partial
// images are reaped.
TEST(CoordHier, OrphanedShardSelfCleansAfterRootDies) {
  ClusterConfig config;
  config.num_nodes = 5;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 4, &pods);

  // A root on the spare node, so it can die without the cluster's own
  // coordinator replaying its journal and aborting the op first.
  auto root = std::make_unique<coord::Coordinator>(c.node(4), c.tiered(),
                                                   "/coord/orphan_journal");
  coord::Coordinator::Options options;
  options.fan_out = 2;
  options.timeout = 5 * kSecond;
  options.image_prefix = "/ckpt/orphan";
  bool finished = false;
  TimeNs start = c.sim().Now();
  root->Checkpoint(members, options, [&](const auto&) { finished = true; });
  c.sim().RunFor(1 * kMillisecond);
  root.reset();

  c.sim().RunUntil(start + options.timeout + 1 * kSecond);
  EXPECT_FALSE(finished);
  EXPECT_TRUE(c.shard_coordinator(0).busy());
  EXPECT_TRUE(c.shard_coordinator(2).busy());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(PodProcessLive(c, i, pods[i])) << "pod " << i;
  }

  c.sim().RunUntil(start + options.timeout + 3 * kSecond);
  EXPECT_FALSE(c.shard_coordinator(0).busy());
  EXPECT_FALSE(c.shard_coordinator(2).busy());
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(PodProcessLive(c, i, pods[i])) << "pod " << i;
  }
  EXPECT_TRUE(c.fs().List("/ckpt/orphan/").empty());
}

}  // namespace
}  // namespace cruz
