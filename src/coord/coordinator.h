// The Checkpoint Coordinator (paper Fig. 2).
//
// One coordinated operation at a time:
//
//   Step 1: send <checkpoint> (or <restart>) to every agent.
//   Step 2: wait for <done> from all agents.
//   Step 3: send <continue> to all agents.
//   Step 4: wait for <continue-done> from all agents.
//
// This is the minimum message count needed for atomicity (two-phase
// commit): O(N) messages, versus the O(N²) all-to-all flush of the
// MPVM/CoCheck/LAM-MPI baselines (also implemented, for comparison).
// With the Fig. 4 optimization the <continue> is sent as soon as every
// agent reports communication disabled, letting each node resume right
// after its own local save.
//
// The coordinator measures exactly what §6 reports: total checkpoint
// latency (first <checkpoint> sent to last <done> received, Fig. 5a) and
// the coordination overhead (full latency minus the maxima of the local
// checkpoint and continue times, Fig. 5b).
//
// Two roles run this one state machine (DESIGN.md §13):
//  - The root runs on a node distinct from the application nodes (as in
//    §6), on kCoordinatorPort, and is driven by Checkpoint()/Restart().
//    With Options::fan_out its children are shard heads instead of
//    agents, so no endpoint addresses more than max(⌈N/F⌉, F) others.
//  - A shard head runs on every worker node, on kShardPort, idle until a
//    root sends it <shard-checkpoint>/<shard-restart> with a roster. It
//    drives the roster's agents exactly as a flat root would and reports
//    each phase upward as one aggregated <shard-done>,
//    <shard-continue-done> or <shard-comm-disabled>; the <continue> is
//    the root's decision, relayed on <shard-continue>.
//
// Failure model (the paper: the protocol "can be extended in a
// straightforward way to tolerate Coordinator and Agent failures"):
//  - Lost control messages are retransmitted with exponential backoff and
//    seeded jitter, capped by a round limit.
//  - Every op carries a fencing epoch, monotonic across root
//    incarnations; agents and shard heads reject stale-epoch requests.
//  - An intent record is journaled to the shared FS before the first
//    message of an op; a restarted coordinator aborts the journaled
//    in-flight op and garbage-collects its partial images.
//  - Optional liveness probing (<ping>/<pong>) detects a dead agent or
//    node in a few heartbeats and aborts the op fast instead of eating
//    the full operation timeout.
//  - An agent that cannot perform its local part reports <failed>, which
//    aborts the op immediately; aborted checkpoint images are deleted.
//  - A shard head answers a re-sent request from its reply cache, ignores
//    a request overtaken by its abort, and aborts its shard itself shortly
//    after the root's op timeout, so a dead root cannot leave pods frozen.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "coord/journal.h"
#include "coord/message.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "os/node.h"
#include "sim/event_queue.h"

namespace cruz::ckpt {
class TieredStore;
}  // namespace cruz::ckpt

namespace cruz::coord {

class Coordinator {
 public:
  struct Member {
    net::Ipv4Address agent_ip;  // node address of the agent
    os::PodId pod = os::kNoPod;
  };

  struct Options {
    ProtocolVariant variant = ProtocolVariant::kBlocking;
    // Abort the op if it has not completed by then (0 = no deadline).
    DurationNs timeout = 120 * kSecond;
    // Unanswered requests are retransmitted (the coordination channel is
    // UDP). The interval starts at retransmit_interval and doubles per
    // round up to 4x that; each round is jittered ±25% from the
    // simulator's seeded RNG so retransmissions cannot synchronize.
    // retransmit_interval == 0 disables retransmission entirely.
    DurationNs retransmit_interval = 2 * kSecond;
    // Abort the op after this many retransmit rounds (0 = no cap; the
    // overall timeout still applies).
    std::uint32_t max_retransmit_rounds = 0;
    // Liveness probing: every heartbeat_interval the coordinator pings
    // members that still owe a reply; an agent that misses more than
    // max_missed_heartbeats consecutive probes is declared dead and the
    // op is aborted early. 0 disables probing (and then only the overall
    // timeout bounds the op).
    DurationNs heartbeat_interval = 0;
    std::uint32_t max_missed_heartbeats = 3;
    std::string image_prefix = "/ckpt/op";
    // §5.2 optimizations (checkpoints only). Incremental images save only
    // pages dirtied since each agent's previous checkpoint of the pod;
    // copy-on-write resumes the pod right after the in-memory capture.
    // Combine copy_on_write with ProtocolVariant::kOptimized so the
    // resume permission also arrives early.
    bool incremental = false;
    bool copy_on_write = false;
    // Write version-2 images with RLE-compressed pages (shrinks the
    // dominant disk-write time; restore reads either version).
    bool compress = false;
    // Multi-tier storage: agents commit images to local + partner disks
    // (netfs flush in the background) and restarts resolve across the
    // tier hierarchy. false = zero local tiers, the netfs alone.
    bool tiered = false;
    // Hierarchical coordination (DESIGN.md §13): partition the members
    // into contiguous shards of at most fan_out agents, each driven by
    // the shard head on the shard's first node, so the root addresses
    // ⌈N/fan_out⌉ endpoints instead of N. 0 = flat. Ignored by the flush
    // baseline (its all-to-all marker traffic is the point of that
    // comparison).
    std::uint32_t fan_out = 0;
  };

  struct OpStats {
    bool success = false;
    std::uint64_t op_id = 0;
    std::uint64_t epoch = 0;  // fencing epoch carried by every message
    // First <checkpoint> sent to last <done> received (Fig. 5a metric).
    DurationNs checkpoint_latency = 0;
    // First message sent to last <continue-done> received.
    DurationNs full_latency = 0;
    DurationNs max_local = 0;     // max agent-local checkpoint/restore time
    DurationNs max_continue = 0;  // max agent-local continue time
    // Max agent-reported pod downtime: how long any pod's processes were
    // stopped. Stop-the-world: ≈ max_local. Copy-on-write: only the
    // snapshot, so downtime ≪ max_local (the Fig. 5a split this PR adds).
    DurationNs max_downtime = 0;
    // full_latency − max_local − max_continue (Fig. 5b metric).
    DurationNs coordination_overhead = 0;
    std::uint32_t coordinator_messages = 0;  // sent by the coordinator
    std::uint32_t total_messages = 0;  // + agent replies + flush traffic
    // Failure-handling counters.
    std::uint32_t retransmits = 0;  // messages re-sent after loss
    std::uint32_t timeouts = 0;     // overall-timeout expirations (0/1)
    std::uint32_t aborts = 0;       // <abort> messages sent
    std::string abort_reason;       // empty on success
    std::vector<std::string> image_paths;
    // Tiered mode, per member (same order as the member list): where each
    // image landed at commit time (checkpoints — feeds the generation
    // manifest) and which tier served each restore (ckpt::Tier as u8,
    // 255 = unset).
    std::vector<std::vector<ckpt::Replica>> replica_sets;
    std::vector<std::uint8_t> restore_sources;
    // Hierarchical mode: number of shards (0 = flat) and the maximum
    // number of distinct destinations any single endpoint addressed
    // during the op (flat: N at the root; hierarchical: the larger of
    // the shard count and the largest shard).
    std::uint32_t shard_count = 0;
    std::uint32_t max_endpoint_fanout = 0;
  };

  // What a restarted coordinator found in its intent journal.
  struct RecoveryReport {
    bool had_incomplete = false;
    std::uint64_t epoch = 0;      // epoch of the in-flight op
    bool was_restart = false;
    std::size_t images_removed = 0;  // partial images garbage-collected
  };

  using DoneFn = std::function<void(const OpStats&)>;

  // The root role, on kCoordinatorPort. Journal recovery and op aborts
  // reap partial images from every tier of `store` (pending netfs
  // flushes included); recovery runs in the constructor.
  Coordinator(os::Node& node, ckpt::TieredStore& store,
              std::string journal_path = IntentJournal::kDefaultPath);
  // The shard-head role for `node`, on kShardPort, journaling to
  // /coord/shard_journal_<node name>.
  static std::unique_ptr<Coordinator> ShardHead(os::Node& node,
                                                ckpt::TieredStore& store);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Coordinated checkpoint of one pod per member; no two members may
  // share an agent (an agent serves one pod per op). Image paths are
  // derived from options.image_prefix and reported in the stats.
  void Checkpoint(std::vector<Member> members, Options options, DoneFn done);

  // Coordinated restart from previously written images (one per member,
  // same order).
  void Restart(std::vector<Member> members,
               std::vector<std::string> image_paths, Options options,
               DoneFn done);

  bool busy() const { return op_active_; }
  // Root: the last epoch issued. Shard head: the highest epoch seen.
  std::uint64_t epoch() const { return epoch_; }
  const RecoveryReport& recovery() const { return recovery_; }
  std::uint64_t ops_served() const { return ops_served_; }

  // Deterministic fault injection (tests/benches); nullptr disables.
  void set_fault_injector(fault::Injector* injector) { fault_ = injector; }

  // Sabotage hook for oracle self-tests: broadcast <continue> twice from
  // the protocol layer (above the fault-injection hooks, so the extra
  // copies count as real sends). Never set outside tests.
  void set_test_duplicate_continue(bool dup) { test_duplicate_continue_ = dup; }

  // Sabotage hook for oracle self-tests: a shard head acknowledges
  // <shard-checkpoint> with a fabricated <shard-done> (and
  // <shard-continue-done>) without ever forwarding to the shard's agents
  // — a lying middle tier. The gen-commit invariant must catch the
  // resulting commit with zero agent saves. Never set outside tests.
  void set_test_ack_without_forward(bool v) { test_ack_without_forward_ = v; }

  // Simulates a shard head's process dying: it stops hearing messages
  // and its timers stop until Reset(), which replays the journal
  // recovery a restarted process would run. (A root is crashed by
  // destroying it; its successor's constructor runs the recovery.)
  void Crash();
  bool crashed() const { return crashed_; }
  void Reset();

  static std::string ImagePath(const std::string& prefix, os::PodId pod) {
    return prefix + "/pod_" + std::to_string(pod) + ".img";
  }

 private:
  // Names and port that tell the two roles apart in traces and metrics.
  struct Role {
    std::uint16_t port;
    const char* sent_metric;
    const char* ops_metric;
    const char* abort_event;
    const char* abort_metric;
    const char* recovery_event;
  };
  static const Role kRootRole;
  static const Role kShardHeadRole;

  // One addressee of the op's requests: the agent of one member, or (at
  // a hierarchical root) the shard head driving members [first, end).
  struct Child {
    net::Ipv4Address ip;
    std::uint16_t port = kAgentPort;
    std::size_t first = 0;
    std::size_t end = 0;
    bool shard() const { return port == kShardPort; }
  };

  Coordinator(os::Node& node, const Role& role, ckpt::TieredStore& store,
              std::string journal_path);
  bool root() const { return &role_ == &kRootRole; }

  void Begin(bool is_restart, std::vector<Member> members,
             std::vector<std::string> image_paths, Options options,
             DoneFn done);
  // Resets the per-op state for a new op over `members` (both roles).
  void OpenOp(bool is_restart, const Options& options,
              std::vector<ShardMember> members);
  // Runs once the roster is complete: journals the intent and sends the
  // request to every child.
  void StartOp();
  void ArmDeadline();
  // Contiguous groups of ≤ fan_out members, each addressed at its first
  // member's node (0 = one agent child per member).
  std::vector<Child> Partition(std::uint32_t fan_out) const;

  void OnDatagram(net::Endpoint from, const cruz::Bytes& payload);
  // Shard-head role: <shard-checkpoint>/<shard-restart> fragments,
  // <shard-continue>, <shard-abort> and <ping> from a root.
  void OnParentRequest(const CoordMessage& m, net::Endpoint from);
  void OnShardRequest(const CoordMessage& m, net::Endpoint from);
  void OnChildReply(const CoordMessage& m, net::Ipv4Address from);

  // The message of type `type` (agent-level; mapped to its shard
  // counterpart for a shard child) addressed to `child`.
  CoordMessage ToChild(const Child& child, MsgType type) const;
  // A shard head's report of type `type` for the op, to its root.
  CoordMessage ToParent(MsgType type) const;
  void SendRequest(const Child& child, bool retransmit = false);
  // Counted in the op's totals.
  void SendDown(const Child& child, CoordMessage m);
  // Sends `m`, fragmenting its roster under the MTU.
  void Reply(net::Endpoint to, const CoordMessage& m);
  void Send(net::Endpoint to, CoordMessage m);
  void NoteRetransmit(MsgType type);
  // Folds a child's cumulative count of the messages below it into the
  // total (high-water delta: exact under re-sent replies).
  void AccumulateChildMessages(std::uint32_t child_ip,
                               std::uint32_t cumulative);
  void RecordReport(std::uint32_t agent_ip,
                    const std::vector<ckpt::Replica>& replicas,
                    std::uint8_t restore_source);

  // Phase transitions: the root acts on them, a shard head reports them
  // to its parent.
  void CommDisabledEverywhere();
  void FreezeDone();
  void ContinueDone();
  void BroadcastContinue();
  // The ack-without-forward sabotage: report success at once.
  void AckWithoutForward();

  // <shard-abort> to shard children and <abort> to every member's agent,
  // then removes the op's images on every tier. Returns the number of
  // images removed.
  std::size_t FenceAndReap();
  // `tell_parent`: a shard head reports <shard-failed> upward (not when
  // the parent itself aborted or superseded the op).
  void Abort(const std::string& reason, bool tell_parent = true);
  void Finish(bool success);
  void EndSpans(const char* outcome);
  void CancelTimers();
  void ScheduleRetransmit();
  void RetransmitPending();
  void ScheduleHeartbeat();
  void HeartbeatTick();
  // Journal replay at construction / Reset(): fence and clean up a
  // predecessor's in-flight op.
  void RecoverFromJournal();

  os::Node& node_;
  const Role& role_;
  IntentJournal journal_;
  ckpt::TieredStore& store_;
  fault::Injector* fault_ = nullptr;
  bool test_duplicate_continue_ = false;
  bool test_ack_without_forward_ = false;
  bool crashed_ = false;
  // Fencing epoch, persisted through the journal. The root gives each op
  // epoch_ + 1 (op ids equal epochs, so they are globally unique); a
  // shard head drops requests below the highest epoch it has seen.
  std::uint64_t epoch_ = 0;
  RecoveryReport recovery_;
  // Correlation sequence for send instants: monotonic per incarnation,
  // never reused within a trace (see CoordMessage::corr_seq); survives
  // Reset() so trace identity stays unique across simulated restarts.
  std::uint32_t next_corr_seq_ = 0;
  std::uint64_t ops_served_ = 0;
  // Shard-head fencing and reply cache: a delayed request must not
  // outlive its abort, and a re-sent request for the last completed op is
  // answered from the cache instead of re-running the shard.
  std::uint64_t last_aborted_op_ = 0;
  std::uint64_t last_completed_op_ = 0;
  CoordMessage last_done_reply_;
  CoordMessage last_continue_done_reply_;

  bool op_active_ = false;
  bool started_ = false;  // roster complete, requests sent
  bool is_restart_ = false;
  Options options_;
  // The op's members, carrying their agents' upward reports.
  std::vector<ShardMember> members_;
  std::uint32_t member_total_ = 0;  // shard head: full roster size
  std::vector<Child> children_;
  bool shard_children_ = false;
  net::Endpoint parent_;  // shard head: the root driving the op
  OpStats stats_;
  DoneFn done_fn_;
  TimeNs op_start_ = 0;
  // Keyed by child ip.
  std::set<std::uint32_t> pending_done_;
  std::set<std::uint32_t> pending_continue_done_;
  std::set<std::uint32_t> pending_comm_disabled_;  // Fig. 4
  // Per child ip: cumulative message counts (see AccumulateChildMessages)
  // and the distinct member reports received from fragmented
  // <shard-done>s.
  std::map<std::uint32_t, std::uint32_t> child_messages_seen_;
  std::map<std::uint32_t, std::set<std::uint32_t>> shard_done_members_;
  bool continue_sent_ = false;
  bool done_reported_ = false;
  bool continue_done_reported_ = false;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  sim::EventId retransmit_event_ = sim::kInvalidEventId;
  sim::EventId heartbeat_event_ = sim::kInvalidEventId;
  // Tracing: the whole op; at the root also the freeze phase (first
  // request -> last <done>) and the commit phase (<continue> -> last
  // <continue-done>).
  obs::SpanId op_span_ = obs::kInvalidSpanId;
  obs::SpanId freeze_span_ = obs::kInvalidSpanId;
  obs::SpanId commit_span_ = obs::kInvalidSpanId;
  DurationNs retransmit_interval_now_ = 0;  // current backoff interval
  std::uint32_t retransmit_rounds_ = 0;
  std::map<std::uint32_t, std::uint32_t> missed_heartbeats_;  // by child ip
};

}  // namespace cruz::coord
