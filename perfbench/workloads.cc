#include "workloads.h"

#include <algorithm>
#include <string>
#include <vector>

#include "apps/kvstore.h"
#include "apps/programs.h"
#include "apps/slm.h"
#include "load/loadgen.h"

namespace perfbench {

using namespace cruz;

namespace {

// Ballast lives far above every application program's own pages.
constexpr std::uint64_t kBallastPage = 0x8000;

DurationNs Jitter(Rng& rng, DurationNs span) {
  return span == 0 ? 0 : rng.NextBelow(span);
}

// The cluster's links get a seeded propagation delay (5.0-5.5 us), so
// even a workload's unloaded latencies depend on its seed.
ClusterConfig SeededConfig(Rng& rng, std::uint64_t seed, std::uint32_t nodes) {
  ClusterConfig config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.link.propagation_delay = 5 * kMicrosecond + Jitter(rng, 500);
  return config;
}

coord::Coordinator::Options CowOptimized(const std::string& prefix) {
  coord::Coordinator::Options options;
  options.copy_on_write = true;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.image_prefix = prefix;
  return options;
}

}  // namespace

// kv-slo: the threaded kvstore on node 0 under open-loop load from node 2:
// about 200 connections, each sending every 100 ms (2000 req/s in all),
// for 30 s of simulated time, through 24 COW checkpoints interleaved with
// 24 hybrid live migrations between nodes 0 and 1. Latency counts from
// each request's intended send time. With a 100 ms interarrival, a
// connection whose segments a checkpoint filter dropped delays about two
// requests by the TCP retransmission timeout; that sets the p999.
Outcome RunKvSlo(std::uint64_t seed, bool traced) {
  constexpr std::uint16_t kPort = 5432;
  constexpr DurationNs kPerRequest = 500 * kMicrosecond;  // 2000 req/s
  constexpr std::uint32_t kRequestsPerConn = 300;
  constexpr std::uint32_t kKeysPerConn = 8;
  constexpr int kDisruptions = 48;  // alternating checkpoint / migration

  apps::RegisterKvPrograms();
  load::RegisterLoadPrograms();
  Outcome out;
  Rng rng(seed);
  const std::uint32_t connections =
      198 + static_cast<std::uint32_t>(rng.NextBelow(5));
  const DurationNs interarrival = connections * kPerRequest;
  Episode ep(SeededConfig(rng, seed, 3), traced, out);
  Cluster& c = ep.c();

  os::PodId pod = c.CreatePod(0, "kv");
  net::Ipv4Address ip = c.pods(0).Find(pod)->ip;
  os::Pid vpid = c.pods(0).SpawnInPod(pod, "cruz.kv_server",
                                      apps::KvServerArgs(kPort, true));
  os::Process* server =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(pod, vpid));
  std::uint64_t pages = 252 + rng.NextBelow(8);
  for (std::uint64_t i = 0; i < pages; ++i) {
    server->memory().InstallPage(kBallastPage + i,
                                 BallastPage(rng, i % 2 == 0));
  }
  ep.RunUntil(c.sim().Now() + 5 * kMillisecond);

  os::Os& client = c.node(2).os();
  ClientRecorder recorder;
  recorder.Attach(client);
  recorder.Reserve(static_cast<std::size_t>(connections) * kRequestsPerConn);
  std::uint64_t exited = 0, exit_failures = 0, verify_failures = 0;
  client.set_process_exit_hook([&](os::Pid pid, int code) {
    ++exited;
    if (code != 0) ++exit_failures;
    if (const os::Process* p = client.FindProcess(pid)) {
      verify_failures += load::ReadLoadConnStatus(*p).verification_failures;
    }
  });
  TimeNs base = c.sim().Now() + 200 * kMillisecond;
  for (std::uint32_t conn = 0; conn < connections; ++conn) {
    client.Spawn("cruz.kv_loadconn",
                 load::KvLoadConnArgs(ip, kPort, conn, base, interarrival,
                                      Jitter(rng, interarrival),
                                      kRequestsPerConn, rng.NextU64(),
                                      conn * kKeysPerConn, kKeysPerConn));
  }
  out.client_expected =
      static_cast<std::uint64_t>(connections) * kRequestsPerConn;
  ep.RunUntil(base);  // connections established

  ep.StartMeasuring();
  const DurationNs load_span = kRequestsPerConn * interarrival;
  const DurationNs slot = load_span / kDisruptions;
  ckpt::LiveMigrateOptions migrate;
  migrate.hot_window = 200 * kMicrosecond;
  std::size_t node = 0;
  for (int k = 0; k < kDisruptions; ++k) {
    ep.RunUntil(base + k * slot + slot / 4 + Jitter(rng, slot / 2));
    if (k % 2 == 0) {
      ep.Checkpoint({c.MemberFor(node, pod)}, CowOptimized("/ckpt/kv"),
                    false);
    } else {
      ep.Migrate(node, 1 - node, pod, migrate);
      node = 1 - node;
    }
  }
  ep.RunWhile([&] { return exited == connections; },
              c.sim().Now() + 120 * kSecond);
  ep.StopMeasuring();

  TimeNs last = base;
  for (const ClientOp& op : recorder.ops()) last = std::max(last, op.completed);
  out.job_s = static_cast<double>(last - base) / 1e9;
  out.app_bytes =
      out.client_expected * (apps::kKvRequestSize + apps::kKvResponseSize);
  out.Check(exited == connections && exit_failures == 0,
            "kv connections exited " + std::to_string(exited) + ", " +
                std::to_string(exit_failures) + " with an error");
  out.Check(verify_failures == 0, std::to_string(verify_failures) +
                                      " kv responses failed verification");
  ep.Finish(recorder, {{node, pod}}, false);
  return out;
}

// slm-restart: the paper's §6 job on 4 ranks with 4 MiB of half
// compressible ballast each, taking blocking compressed tiered
// generation checkpoints. One rank's node fails halfway; the job restarts
// from the newest generation with that rank on the spare node 4 and runs
// to completion, where every rank's checksum must match the reference.
Outcome RunSlmRestart(std::uint64_t seed, bool traced) {
  constexpr std::uint32_t kRanks = 4;
  constexpr int kCheckpoints = 24;
  constexpr DurationNs kInterval = 800 * kMillisecond;

  RegisterProgressPrograms();
  Outcome out;
  Rng rng(seed);
  const std::uint64_t ballast_pages = 1012 + rng.NextBelow(24);  // ~4 MiB
  // The last node is the spare.
  Episode ep(SeededConfig(rng, seed, kRanks + 1), traced, out);
  Cluster& c = ep.c();
  ClientRecorder recorder;  // step ops from every node, spare included
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    recorder.Attach(c.node(i).os());
  }

  apps::SlmConfig base;
  base.nranks = kRanks;
  // Rows of 128 doubles fit one TCP segment. With two-segment rows, some
  // seeds ran ~8% slower steps for a while after a checkpoint dropped a
  // halo segment, which made client_p99_ms jump between seeds.
  base.rows = 32;
  base.cols = 128;
  base.compute_per_iteration =
      2 * kMillisecond + Jitter(rng, 40 * kMicrosecond);
  base.iterations = static_cast<std::uint32_t>(
      (kCheckpoints + 1) * kInterval / base.compute_per_iteration);
  base.exit_when_done = false;
  // The restart repeats the iterations since the restored generation.
  recorder.Reserve(kRanks * base.iterations * 11 / 10);
  std::vector<os::PodId> pods;
  std::vector<std::size_t> nodes;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    nodes.push_back(r);
    pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
    base.peers.push_back(c.pods(r).Find(pods.back())->ip);
  }
  std::vector<os::Pid> vpids;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    apps::SlmConfig cfg = base;
    cfg.rank = r;
    vpids.push_back(c.pods(r).SpawnInPod(
        pods[r], kSlmRankProgram,
        WithProgressTrailer(apps::SlmArgs(cfg), r, 1)));
    os::Process* proc =
        c.node(r).os().FindProcess(c.pods(r).ToRealPid(pods[r], vpids[r]));
    for (std::uint64_t i = 0; i < ballast_pages; ++i) {
      proc->memory().InstallPage(kBallastPage + i,
                                 BallastPage(rng, i % 2 == 0));
    }
  }
  auto rank_process = [&](std::uint32_t r) {
    return c.node(nodes[r]).os().FindProcess(
        c.pods(nodes[r]).ToRealPid(pods[r], vpids[r]));
  };
  auto all_done = [&] {
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      const os::Process* p = rank_process(r);
      if (p == nullptr ||
          apps::ReadSlmStatus(*p).iterations < base.iterations) {
        return false;
      }
    }
    return true;
  };
  ep.RunUntil(c.sim().Now() + 50 * kMillisecond);  // ring establishment

  ep.StartMeasuring();
  TimeNs job_begin = c.sim().Now();
  coord::Coordinator::Options options;
  options.compress = true;
  options.tiered = true;
  auto members = [&] {
    std::vector<coord::Coordinator::Member> m;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      m.push_back(c.MemberFor(nodes[r], pods[r]));
    }
    return m;
  };
  const auto victim = static_cast<std::uint32_t>(rng.NextBelow(kRanks));
  for (int k = 0; k < kCheckpoints; ++k) {
    ep.RunUntil(job_begin + k * kInterval + kInterval / 4 +
                Jitter(rng, kInterval / 2));
    ep.Checkpoint(members(), options, true);
    if (k != kCheckpoints / 2) continue;
    // Fail-stop of the victim's node some time after this checkpoint;
    // the survivors are torn down and the whole job restarts from the
    // newest generation, the victim's rank on the spare.
    ep.RunUntil(c.sim().Now() + kInterval / 4 + Jitter(rng, kInterval / 4));
    c.node(nodes[victim]).Fail();
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      if (r != victim) c.pods(nodes[r]).DestroyPod(pods[r]);
    }
    nodes[victim] = kRanks;
    ep.Restart(members(), options);
  }
  bool finished = ep.RunWhile(all_done, c.sim().Now() + 600 * kSecond);
  ep.StopMeasuring();
  out.job_s = static_cast<double>(c.sim().Now() - job_begin) / 1e9;

  out.Check(finished, "slm job did not finish");
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    apps::SlmConfig cfg = base;
    cfg.rank = r;
    const os::Process* p = rank_process(r);
    apps::SlmStatus s =
        p == nullptr ? apps::SlmStatus{} : apps::ReadSlmStatus(*p);
    out.app_bytes += s.bytes_exchanged;
    out.Check(s.edge_checksum ==
                  apps::SlmReferenceChecksum(cfg, base.iterations),
              "slm rank " + std::to_string(r) +
                  " checksum differs from the reference");
  }
  std::vector<std::pair<std::size_t, os::PodId>> codec_pods;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    codec_pods.emplace_back(nodes[r], pods[r]);
  }
  ep.Finish(recorder, codec_pods, true);
  return out;
}

// wide-stream: 64 nodes whose pods form a ring of TCP streams, each
// drained by a bursty receiver, through 20 COW checkpoints of all 64
// pods driven by the hierarchical coordinator (fan_out 8).
Outcome RunWideStream(std::uint64_t seed, bool traced) {
  constexpr std::uint32_t kNodes = 64;
  constexpr std::uint16_t kPort = 9300;
  constexpr std::uint32_t kBurstBytes = 1024;
  constexpr DurationNs kBurstInterval = 1 * kMillisecond;
  constexpr std::uint64_t kStreamBytes = 3 * kMiB + kMiB / 2;
  constexpr int kCheckpoints = 20;
  constexpr DurationNs kInterval = 300 * kMillisecond;

  RegisterProgressPrograms();
  Outcome out;
  Rng rng(seed);
  ClusterConfig config = SeededConfig(rng, seed, kNodes);
  // A receive buffer of two bursts keeps little backlog at the receiver,
  // so a flow whose segments the checkpoint filter dropped shows as a
  // receiver stall until TCP recovers. Fast local disks keep the tiny
  // saves short, leaving coordination at width as the op's main cost.
  config.node_template.tcp.recv_buffer_capacity = 2 * kBurstBytes;
  // The senders keep their send buffers full; its seeded size is what
  // each COW capture copies while the pod is stopped.
  config.node_template.tcp.send_buffer_capacity =
      62 * 1024 + rng.NextBelow(2 * 1024);
  config.node_template.disk_latency = 100 * kMicrosecond;
  config.node_template.disk_write_bytes_per_sec = 1 * kGiB;
  Episode ep(config, traced, out);
  Cluster& c = ep.c();
  // Per-datagram UDP processing of the era's kernels (the calibration of
  // the §6 coordination-overhead sweep), on every node.
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    c.node(i).stack().set_udp_service_processing_cost(25 * kMicrosecond);
  }
  c.coordinator_node().stack().set_udp_service_processing_cost(
      25 * kMicrosecond);

  ClientRecorder recorder;
  recorder.Reserve(kNodes * (kStreamBytes / kBurstBytes));
  std::uint64_t exited = 0, bad_streams = 0;
  // Sum of the streams' finish times: job completion here is the mean
  // stream completion time. The last stream's time depends on which
  // flow happened to back off its retransmission timer, and moves by
  // whole RTOs from seed to seed.
  TimeNs finish_sum = 0;
  std::vector<os::PodId> pods;
  std::vector<net::Ipv4Address> ips;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    pods.push_back(c.CreatePod(i, "ring" + std::to_string(i)));
    ips.push_back(c.pods(i).Find(pods.back())->ip);
    os::Os& os = c.node(i).os();
    recorder.Attach(os);
    os.set_process_exit_hook([&, i](os::Pid pid, int code) {
      const os::Process* p = c.node(i).os().FindProcess(pid);
      if (p == nullptr || p->program_name() != kStreamReceiverProgram) return;
      apps::StreamStatus s = apps::ReadStreamStatus(*p);
      ++exited;
      finish_sum += c.sim().Now();
      if (code != 0 || s.bytes != kStreamBytes || s.mismatches != 0) {
        ++bad_streams;
      }
    });
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    DurationNs interval = kBurstInterval - kBurstInterval / 64 +
                          Jitter(rng, kBurstInterval / 32);
    c.pods(i).SpawnInPod(
        pods[i], kStreamReceiverProgram,
        WithProgressTrailer(
            apps::StreamReceiverArgs(kPort, interval, kBurstBytes), i,
            kBurstBytes));
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.pods(i).SpawnInPod(
        pods[i], "cruz.stream_sender",
        apps::StreamSenderArgs(ips[(i + 1) % kNodes], kPort, kStreamBytes));
  }
  ep.RunUntil(c.sim().Now() + 20 * kMillisecond);  // connection set-up

  ep.StartMeasuring();
  TimeNs job_begin = c.sim().Now();
  std::vector<coord::Coordinator::Member> members;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    members.push_back(c.MemberFor(i, pods[i]));
  }
  coord::Coordinator::Options options = CowOptimized("/ckpt/wide");
  options.fan_out = 8;
  // Consecutive checkpoints are 225-375 ms apart: past the 200 ms minimum
  // RTO, so a flow's first retransmission never meets the next filter.
  for (int k = 0; k < kCheckpoints; ++k) {
    ep.RunUntil(job_begin + k * kInterval + Jitter(rng, kInterval / 4));
    ep.Checkpoint(members, options, false);
  }
  bool finished = ep.RunWhile([&] { return exited == kNodes; },
                              c.sim().Now() + 120 * kSecond);
  ep.StopMeasuring();
  out.job_s = (static_cast<double>(finish_sum) / kNodes -
               static_cast<double>(job_begin)) /
              1e9;
  out.app_bytes = kNodes * kStreamBytes;
  out.Check(finished, "only " + std::to_string(exited) + " of " +
                          std::to_string(kNodes) + " streams finished");
  out.Check(bad_streams == 0, std::to_string(bad_streams) +
                                  " streams lost, duplicated or corrupted "
                                  "bytes");
  std::vector<std::pair<std::size_t, os::PodId>> codec_pods;
  for (std::uint32_t i = 0; i < 4; ++i) codec_pods.emplace_back(i, pods[i]);
  ep.Finish(recorder, codec_pods, false);
  return out;
}

}  // namespace perfbench
