// Tests for coordinated checkpoint-restart of distributed applications:
// the Fig. 2 blocking protocol, the Fig. 4 optimized variant, the
// CoCheck-style flush baseline (message complexity), coordinated restart
// after total failure, coordinator fault handling, and the resume-time
// TCP kick that replaces the post-checkpoint RTO stall.
#include <gtest/gtest.h>

#include <string>

#include "apps/programs.h"
#include "coord/coordinator.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

namespace cruz::coord {
namespace {

// A distributed streaming job: sender pod on node 0, receiver pod on
// node 1, streaming the deterministic pattern.
struct StreamJob {
  os::PodId sender_pod;
  os::PodId receiver_pod;
  net::Ipv4Address receiver_ip;
  os::Pid sender_vpid = 0;
  os::Pid receiver_vpid = 0;

  static StreamJob Start(Cluster& c, std::uint64_t total_bytes) {
    StreamJob job;
    job.receiver_pod = c.CreatePod(1, "recv");
    job.receiver_ip = c.pods(1).Find(job.receiver_pod)->ip;
    job.receiver_vpid = c.pods(1).SpawnInPod(
        job.receiver_pod, "cruz.stream_receiver",
        apps::StreamReceiverArgs(9100));
    c.sim().RunFor(5 * kMillisecond);
    job.sender_pod = c.CreatePod(0, "send");
    job.sender_vpid = c.pods(0).SpawnInPod(
        job.sender_pod, "cruz.stream_sender",
        apps::StreamSenderArgs(job.receiver_ip, 9100, total_bytes));
    return job;
  }

  // Last observed status; sticky across receiver exit (the process
  // disappears once the stream completes).
  apps::StreamStatus last_status;

  apps::StreamStatus ReceiverStatus(Cluster& c, std::size_t node = 1) {
    os::Pid real =
        c.pods(node).ToRealPid(receiver_pod, receiver_vpid);
    os::Process* proc = c.node(node).os().FindProcess(real);
    if (proc != nullptr) last_status = apps::ReadStreamStatus(*proc);
    return last_status;
  }
};

TEST(Coordinated, CheckpointAndContinueMidStream) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 4 * kMiB);

  // Let the stream get going.
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 256 * 1024; },
      c.sim().Now() + 60 * kSecond));
  std::uint64_t before = job.ReceiverStatus(c).bytes;

  Coordinator::OpStats stats = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)});
  EXPECT_TRUE(stats.success);
  EXPECT_GT(stats.checkpoint_latency, 0u);
  EXPECT_GT(stats.max_local, 0u);
  // Coordination overhead is tiny compared to the local checkpoint time.
  EXPECT_LT(stats.coordination_overhead, stats.max_local / 10);
  // Fig. 2 message count: 4 coordinator->agent messages per member plus
  // replies — O(N), no flush traffic.
  EXPECT_EQ(stats.coordinator_messages, 2u * 2u);
  EXPECT_LE(stats.total_messages, 2u * 5u);

  // The stream completes with exactly-once delivery after the checkpoint.
  std::uint64_t final_total = 4 * kMiB;
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= final_total; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_GE(job.ReceiverStatus(c).bytes, before);
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

TEST(Coordinated, RestartAfterTotalFailure) {
  ClusterConfig config;
  config.num_nodes = 4;  // two app nodes + two spares
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 2 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 128 * 1024; },
      c.sim().Now() + 60 * kSecond));

  Coordinator::Options opts;
  opts.image_prefix = "/ckpt/job1";
  Coordinator::OpStats ck = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts);
  ASSERT_TRUE(ck.success);
  std::uint64_t at_checkpoint = job.ReceiverStatus(c).bytes;

  // Let it run on a little (this post-checkpoint progress is rolled back).
  c.sim().RunFor(100 * kMillisecond);

  // Catastrophe: both pods die.
  c.pods(0).DestroyPod(job.sender_pod);
  c.pods(1).DestroyPod(job.receiver_pod);
  c.sim().RunFor(kSecond);

  // Coordinated restart on the SPARE nodes (2 and 3) from the images.
  Coordinator::OpStats rs = c.RunRestart(
      {c.MemberFor(2, job.sender_pod), c.MemberFor(3, job.receiver_pod)},
      ck.image_paths, opts);
  EXPECT_TRUE(rs.success);
  EXPECT_GT(rs.max_local, 0u);
  EXPECT_LT(rs.coordination_overhead, rs.max_local / 10);

  // The pods now live on the new nodes with the same addresses.
  EXPECT_TRUE(c.node(3).stack().OwnsIp(job.receiver_ip));
  // The stream resumes from the checkpoint and completes, exactly once.
  job.last_status = apps::StreamStatus{};
  EXPECT_LE(job.ReceiverStatus(c, 3).bytes, at_checkpoint + 1);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c, 3).bytes >= 2 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c, 3).mismatches, 0u);
}

TEST(Coordinated, OptimizedVariantResumesEarly) {
  ClusterConfig config;
  config.num_nodes = 2;
  // Make the two nodes' disks very different so the Fig. 4 benefit is
  // observable: the fast node resumes long before the slow one finishes.
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 2 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 64 * 1024; },
      c.sim().Now() + 60 * kSecond));

  Coordinator::Options opts;
  opts.variant = ProtocolVariant::kOptimized;
  opts.image_prefix = "/ckpt/opt";
  Coordinator::OpStats stats = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts);
  EXPECT_TRUE(stats.success);
  // Extra <comm-disabled> message per member.
  EXPECT_LE(stats.total_messages, 2u * 6u);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= 2 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

TEST(Coordinated, FlushBaselineUsesQuadraticMessages) {
  for (std::uint32_t n : {2u, 4u}) {
    ClusterConfig config;
    config.num_nodes = n;
    Cluster c(config);
    // One idle pod per node (counters; the protocol cost is what matters).
    std::vector<Coordinator::Member> members;
    for (std::uint32_t i = 0; i < n; ++i) {
      os::PodId pod = c.CreatePod(i, "p" + std::to_string(i));
      c.pods(i).SpawnInPod(pod, "cruz.counter",
                           apps::CounterArgs(1u << 30));
      members.push_back(c.MemberFor(i, pod));
    }
    c.sim().RunFor(10 * kMillisecond);

    Coordinator::Options cruz_opts;
    cruz_opts.image_prefix = "/ckpt/cruz" + std::to_string(n);
    Coordinator::OpStats cruz_stats = c.RunCheckpoint(members, cruz_opts);
    ASSERT_TRUE(cruz_stats.success);

    Coordinator::Options flush_opts;
    flush_opts.variant = ProtocolVariant::kFlushBaseline;
    flush_opts.image_prefix = "/ckpt/flush" + std::to_string(n);
    Coordinator::OpStats flush_stats = c.RunCheckpoint(members, flush_opts);
    ASSERT_TRUE(flush_stats.success);

    // Cruz: O(N) messages. Baseline adds N*(N-1) marker messages.
    EXPECT_EQ(cruz_stats.coordinator_messages, 2 * n);
    EXPECT_GE(flush_stats.total_messages,
              cruz_stats.total_messages + n * (n - 1));
  }
}

TEST(Coordinated, TimeoutAbortsAndResumesSurvivors) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 8 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 64 * 1024; },
      c.sim().Now() + 60 * kSecond));

  // Node 0 fails right before the checkpoint: its agent can never reply.
  c.node(0).Fail();
  Coordinator::Options opts;
  opts.timeout = 2 * kSecond;
  Coordinator::OpStats stats = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts);
  EXPECT_FALSE(stats.success);
  c.sim().RunFor(kSecond);  // let the <abort> reach the surviving agent
  // The surviving pod was resumed by the abort: its processes are live.
  os::Pid real = c.pods(1).ToRealPid(job.receiver_pod, job.receiver_vpid);
  os::Process* proc = c.node(1).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state(), os::ProcessState::kLive);
}

TEST(Coordinated, RepeatedCheckpointsKeepStreamIntact) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 6 * kMiB);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(c.sim().RunWhile(
        [&] {
          return job.ReceiverStatus(c).bytes >
                 static_cast<std::uint64_t>(round + 1) * kMiB;
        },
        c.sim().Now() + 600 * kSecond))
        << "round " << round;
    Coordinator::Options opts;
    opts.image_prefix = "/ckpt/round" + std::to_string(round);
    Coordinator::OpStats stats = c.RunCheckpoint(
        {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
        opts);
    ASSERT_TRUE(stats.success) << "round " << round;
  }
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= 6 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

TEST(Coordinated, ChainCheckpointThenRestartThenCheckpoint) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 3 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 200 * 1024; },
      c.sim().Now() + 60 * kSecond));

  Coordinator::Options opts;
  opts.image_prefix = "/ckpt/chain1";
  auto members = std::vector<Coordinator::Member>{
      c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)};
  Coordinator::OpStats ck1 = c.RunCheckpoint(members, opts);
  ASSERT_TRUE(ck1.success);

  c.pods(0).DestroyPod(job.sender_pod);
  c.pods(1).DestroyPod(job.receiver_pod);

  // Restart sender on node 2, receiver back on node 1.
  Coordinator::OpStats rs = c.RunRestart(
      {c.MemberFor(2, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      ck1.image_paths, opts);
  ASSERT_TRUE(rs.success);

  // A second checkpoint of the restarted job also works (receiver was
  // restarted in place on node 1).
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 1 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  Coordinator::Options opts2;
  opts2.image_prefix = "/ckpt/chain2";
  Coordinator::OpStats ck2 = c.RunCheckpoint(
      {c.MemberFor(2, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts2);
  EXPECT_TRUE(ck2.success);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= 3 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Resume-time TCP kick
// ---------------------------------------------------------------------------

// A request/response job: an echo server pod on node 1 (the only
// checkpoint member), a busy echo client pod on node 0 that keeps one
// request outstanding every 200 us, so the server's drop filter eats one
// during any checkpoint, and an idle client pod on node 2 whose
// connection carries nothing across the checkpoint.
struct EchoJob {
  os::PodId server_pod = os::kNoPod;
  os::PodId busy_pod = os::kNoPod;
  os::Pid busy_vpid = 0;
  net::Ipv4Address server_ip;
  net::Ipv4Address busy_ip;
  net::Ipv4Address idle_ip;

  static EchoJob Start(Cluster& c) {
    EchoJob job;
    job.server_pod = c.CreatePod(1, "echo");
    job.server_ip = c.pods(1).Find(job.server_pod)->ip;
    c.pods(1).SpawnInPod(job.server_pod, "cruz.echo_server",
                         apps::EchoServerArgs(7000));
    c.sim().RunFor(5 * kMillisecond);
    job.busy_pod = c.CreatePod(0, "busy");
    job.busy_ip = c.pods(0).Find(job.busy_pod)->ip;
    job.busy_vpid = c.pods(0).SpawnInPod(
        job.busy_pod, "cruz.echo_client",
        apps::EchoClientArgs(job.server_ip, 7000, 1u << 30, 64,
                             200 * kMicrosecond));
    os::PodId idle_pod = c.CreatePod(2, "idle");
    job.idle_ip = c.pods(2).Find(idle_pod)->ip;
    c.pods(2).SpawnInPod(idle_pod, "cruz.echo_client",
                         apps::EchoClientArgs(job.server_ip, 7000, 2, 64,
                                              60 * kSecond));
    c.sim().RunFor(50 * kMillisecond);
    return job;
  }

  std::uint64_t BusyDone(Cluster& c) const {
    os::Process* proc = c.node(0).os().FindProcess(
        c.pods(0).ToRealPid(busy_pod, busy_vpid));
    return proc == nullptr ? 0
                           : apps::ReadEchoClientStatus(*proc).messages_done;
  }

  // The server's end of its connection to `client_ip`.
  tcp::TcpConnection* ServerConn(Cluster& c, net::Ipv4Address client_ip) {
    for (auto& [id, sock] : c.node(1).stack().tcp_sockets()) {
      if (sock->conn && sock->conn->tuple().local.ip == server_ip &&
          sock->conn->tuple().remote.ip == client_ip) {
        return sock->conn.get();
      }
    }
    return nullptr;
  }
};

// How the busy client's connection got through one checkpoint of the
// echo server, read from the trace.
struct Recovery {
  bool success = false;
  std::size_t rtos = 0;             // tcp.rto on the busy connection
  DurationNs first_rto_ns = 0;      // its rto_ns argument
  DurationNs after_unfilter = 0;    // tcp.recovered - agent.filter.remove
  std::uint64_t done_at_resume = 0;  // busy requests at op completion
  std::uint64_t done_1ms_later = 0;
};

Recovery CheckpointEchoServer(Cluster& c, const EchoJob& job) {
  Recovery r;
  Coordinator::Options opts;
  opts.image_prefix = "/ckpt/echo";
  Coordinator::OpStats stats =
      c.RunCheckpoint({c.MemberFor(1, job.server_pod)}, opts);
  r.success = stats.success;
  r.done_at_resume = job.BusyDone(c);
  c.sim().RunFor(kMillisecond);
  r.done_1ms_later = job.BusyDone(c);
  c.sim().RunFor(400 * kMillisecond);

  obs::TraceQuery q(c.sim().tracer());
  const obs::TraceEvent* freeze =
      q.First(obs::TraceQuery::Filter{}.Name("agent.filter.install"));
  const obs::TraceEvent* unfilter =
      q.Last(obs::TraceQuery::Filter{}.Name("agent.filter.remove"));
  if (freeze == nullptr || unfilter == nullptr) return r;
  std::string busy = job.busy_ip.ToString() + ":";
  for (const obs::TraceEvent* e : q.Named("tcp.rto")) {
    if (e->ts < freeze->ts || e->attrs.conn.rfind(busy, 0) != 0) continue;
    if (r.rtos++ != 0) continue;
    for (const auto& [key, value] : e->attrs.args) {
      if (key == "rto_ns") r.first_rto_ns = std::stoull(value);
    }
  }
  for (const obs::TraceEvent* e : q.Named("tcp.recovered")) {
    if (e->ts > unfilter->ts && e->attrs.conn.rfind(busy, 0) == 0) {
      r.after_unfilter = e->ts - unfilter->ts;
      break;
    }
  }
  return r;
}

// (a) The server's drop filter eats a request; the resume-time kick's
// duplicate ACKs make the client fast-retransmit it, so the request
// completes within a round trip of filter removal and no RTO fires.
TEST(ResumeKick, FilteredRequestCompletesWithinOneRtt) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  EchoJob job = EchoJob::Start(c);
  Recovery r = CheckpointEchoServer(c, job);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.rtos, 0u);
  EXPECT_GT(r.after_unfilter, 0u);
  EXPECT_LT(r.after_unfilter, kMillisecond);
  EXPECT_GT(r.done_1ms_later, r.done_at_resume);
  EXPECT_GT(c.sim().metrics().counter("tcp.kicks_total").value(), 0u);
}

// Mutation check for (a): a kick sent while the node's own drop filter
// is still installed is eaten by that filter, and the request waits out
// the RTO again.
TEST(ResumeKick, KickBeforeFilterRemovalIsEatenByTheFilter) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  EchoJob job = EchoJob::Start(c);
  c.agent(1).set_test_kick_before_unfilter(true);
  Recovery r = CheckpointEchoServer(c, job);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.rtos, 1u);
  EXPECT_GT(r.after_unfilter, 100 * kMillisecond);
  EXPECT_EQ(r.done_1ms_later, r.done_at_resume);
}

// (c) A connection that lost nothing is not kicked: it sends zero extra
// segments across the checkpoint.
TEST(ResumeKick, IdleConnectionSendsNothingExtra) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  EchoJob job = EchoJob::Start(c);
  tcp::TcpConnection* idle = job.ServerConn(c, job.idle_ip);
  ASSERT_NE(idle, nullptr);
  std::uint64_t sent = idle->segments_sent();
  Recovery r = CheckpointEchoServer(c, job);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(idle->segments_sent(), sent);
}

// (e) With the kick switched off, recovery still waits for the RTO at
// min_rto, as the paper's Fig. 6 shows.
TEST(ResumeKick, DisabledKickWaitsForTheRto) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.node_template.tcp.resume_kick = false;
  Cluster c(config);
  EchoJob job = EchoJob::Start(c);
  Recovery r = CheckpointEchoServer(c, job);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.rtos, 1u);
  EXPECT_EQ(r.first_rto_ns, config.node_template.tcp.min_rto);
  EXPECT_GT(r.after_unfilter, 100 * kMillisecond);
  EXPECT_EQ(c.sim().metrics().counter("tcp.kicks_total").value(), 0u);
}

}  // namespace
}  // namespace cruz::coord
