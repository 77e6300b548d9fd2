#include "coord/coordinator.h"

#include <algorithm>

#include "ckpt/store/tiered_store.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace cruz::coord {

namespace {
// A shard head retransmits to its agents faster than a root's defaults
// (it is one hop from them), and its round cap turns a silent agent into
// a prompt <shard-failed> instead of letting the root eat its whole op
// timeout.
constexpr DurationNs kShardRetransmitInterval = 500 * kMillisecond;
constexpr std::uint32_t kShardMaxRetransmitRounds = 8;
// Self-clean margin past the root's op timeout: a shard orphaned by a
// dead root aborts itself shortly after the root would have given up.
constexpr DurationNs kSelfCleanSlack = 2 * kSecond;

bool IsParentRequest(MsgType type) {
  switch (type) {
    case MsgType::kShardCheckpoint:
    case MsgType::kShardRestart:
    case MsgType::kShardContinue:
    case MsgType::kShardAbort:
    case MsgType::kPing:
      return true;
    default:
      return false;
  }
}

// The shard-level counterpart of a request to an agent.
MsgType ShardTypeOf(MsgType type) {
  switch (type) {
    case MsgType::kCheckpoint: return MsgType::kShardCheckpoint;
    case MsgType::kRestart: return MsgType::kShardRestart;
    case MsgType::kContinue: return MsgType::kShardContinue;
    case MsgType::kAbort: return MsgType::kShardAbort;
    default: return type;
  }
}

// A roster entry without upward reports.
ShardMember RosterEntry(std::uint32_t agent_ip, os::PodId pod,
                        std::string image_path) {
  ShardMember sm;
  sm.agent_ip = agent_ip;
  sm.pod = pod;
  sm.image_path = std::move(image_path);
  return sm;
}

// The agent-level meaning of a reply from a shard head.
MsgType LeafTypeOf(MsgType type) {
  switch (type) {
    case MsgType::kShardDone: return MsgType::kDone;
    case MsgType::kShardContinueDone: return MsgType::kContinueDone;
    case MsgType::kShardCommDisabled: return MsgType::kCommDisabled;
    case MsgType::kShardFailed: return MsgType::kFailed;
    case MsgType::kShardPong: return MsgType::kPong;
    default: return type;
  }
}
}  // namespace

const Coordinator::Role Coordinator::kRootRole{
    kCoordinatorPort, "coord.messages_sent", "coord.ops_total",
    "coord.abort",    "coord.aborts_total",  "coord.recovery"};
const Coordinator::Role Coordinator::kShardHeadRole{
    kShardPort,          "coord.shard.messages_sent", "coord.shard.ops_total",
    "coord.shard.abort", "coord.shard.aborts_total",  "coord.shard.recovery"};

Coordinator::Coordinator(os::Node& node, ckpt::TieredStore& store,
                         std::string journal_path)
    : Coordinator(node, kRootRole, store, std::move(journal_path)) {}

std::unique_ptr<Coordinator> Coordinator::ShardHead(os::Node& node,
                                                    ckpt::TieredStore& store) {
  return std::unique_ptr<Coordinator>(new Coordinator(
      node, kShardHeadRole, store, "/coord/shard_journal_" + node.name()));
}

Coordinator::Coordinator(os::Node& node, const Role& role,
                         ckpt::TieredStore& store, std::string journal_path)
    : node_(node),
      role_(role),
      journal_(node.os().fs(), std::move(journal_path)),
      store_(store) {
  node_.stack().RegisterUdpService(
      role_.port, [this](net::Endpoint from, const cruz::Bytes& payload) {
        OnDatagram(from, payload);
      });
  RecoverFromJournal();
}

Coordinator::~Coordinator() {
  // A coordinator may be torn down mid-op (process crash in the recovery
  // scenarios); cancel every pending event that captures `this`.
  CancelTimers();
  node_.stack().UnregisterUdpService(role_.port);
}

void Coordinator::CancelTimers() {
  for (sim::EventId* event :
       {&timeout_event_, &retransmit_event_, &heartbeat_event_}) {
    if (*event != sim::kInvalidEventId) {
      node_.os().sim().Cancel(*event);
      *event = sim::kInvalidEventId;
    }
  }
}

void Coordinator::RecoverFromJournal() {
  IntentJournal::RecoveredState state = journal_.Recover();
  epoch_ = std::max(epoch_, state.last_epoch);
  if (!state.incomplete.has_value()) return;

  // A previous incarnation died with this op in flight. Abort it: fence
  // the agents (they resume their pods and drop the partial state) and
  // garbage-collect whatever images the checkpoint already wrote, on
  // every tier. Restart intents read images, they do not own them — no
  // GC.
  const JournalRecord& intent = *state.incomplete;
  recovery_.had_incomplete = true;
  recovery_.epoch = intent.epoch;
  recovery_.was_restart = intent.is_restart;
  node_.os().sim().tracer().Instant(
      "coord", role_.recovery_event,
      obs::TraceAttrs{}.Op(intent.epoch).Agent(node_.name()).Arg(
          "kind", intent.is_restart ? "restart" : "checkpoint"));
  CRUZ_WARN("coord") << node_.name() << ": journal recovery: aborting "
                     << (intent.is_restart ? "restart" : "checkpoint")
                     << " op epoch " << intent.epoch;
  last_aborted_op_ = std::max(last_aborted_op_, intent.epoch);
  // Rebuild the dead op from its intent — the shard partition is
  // deterministic, so a hierarchical op's shard heads get fenced and
  // clean their own shards too — and fence it like a live abort.
  is_restart_ = intent.is_restart;
  stats_ = OpStats{};
  stats_.op_id = stats_.epoch = intent.epoch;
  members_.clear();
  for (const JournalRecord::Member& m : intent.members) {
    members_.push_back(RosterEntry(m.agent_ip, m.pod, m.image_path));
  }
  shard_children_ = intent.fan_out > 0;
  children_ = Partition(intent.fan_out);
  recovery_.images_removed = FenceAndReap();
  JournalRecord outcome;
  outcome.type = JournalRecord::Type::kAbort;
  outcome.epoch = intent.epoch;
  outcome.is_restart = intent.is_restart;
  journal_.Append(outcome);
}

void Coordinator::Crash() {
  if (crashed_) return;
  crashed_ = true;
  // A dead process fires no timers: without this the retransmit and
  // deadline events would keep acting (sending aborts!) from beyond the
  // grave.
  CancelTimers();
  EndSpans("sub-crash");
  node_.os().sim().tracer().Instant(
      "coord", "coord.shard.crash", obs::TraceAttrs{}.Agent(node_.name()));
  CRUZ_WARN("coord") << node_.name() << ": coordinator CRASHED";
}

void Coordinator::Reset() {
  crashed_ = false;
  CancelTimers();
  op_active_ = false;
  // Volatile state does not survive a process restart; the journal
  // restores the fencing epoch and aborts the interrupted op.
  epoch_ = 0;
  last_completed_op_ = 0;
  last_aborted_op_ = 0;
  RecoverFromJournal();
  CRUZ_INFO("coord") << node_.name() << ": coordinator restarted";
}

void Coordinator::Checkpoint(std::vector<Member> members, Options options,
                             DoneFn done) {
  std::vector<std::string> paths;
  for (const Member& m : members) {
    paths.push_back(ImagePath(options.image_prefix, m.pod));
  }
  Begin(/*is_restart=*/false, std::move(members), std::move(paths),
        std::move(options), std::move(done));
}

void Coordinator::Restart(std::vector<Member> members,
                          std::vector<std::string> image_paths,
                          Options options, DoneFn done) {
  CRUZ_CHECK(image_paths.size() == members.size(),
             "Restart: one image path per member");
  Begin(/*is_restart=*/true, std::move(members), std::move(image_paths),
        std::move(options), std::move(done));
}

void Coordinator::Begin(bool is_restart, std::vector<Member> members,
                        std::vector<std::string> image_paths,
                        Options options, DoneFn done) {
  CRUZ_CHECK(!op_active_, "coordinator busy with another operation");
  CRUZ_CHECK(!members.empty(), "coordinated operation with no members");
  std::vector<ShardMember> roster;
  std::set<std::uint32_t> agents;
  for (std::size_t i = 0; i < members.size(); ++i) {
    // An agent serves one pod per op: a second member on the same agent
    // would be taken for a duplicate request and silently skipped.
    CRUZ_CHECK(agents.insert(members[i].agent_ip.value).second,
               "coordinated operation names one agent twice");
    roster.push_back(RosterEntry(members[i].agent_ip.value, members[i].pod,
                                 image_paths[i]));
  }
  OpenOp(is_restart, options, std::move(roster));
  done_fn_ = std::move(done);
  stats_.op_id = stats_.epoch = ++epoch_;
  stats_.image_paths = std::move(image_paths);
  StartOp();
  ArmDeadline();
}

void Coordinator::OpenOp(bool is_restart, const Options& options,
                         std::vector<ShardMember> members) {
  op_active_ = true;
  started_ = false;
  is_restart_ = is_restart;
  options_ = options;
  members_ = std::move(members);
  member_total_ = static_cast<std::uint32_t>(members_.size());
  children_.clear();
  stats_ = OpStats{};
  continue_sent_ = false;
  done_reported_ = false;
  continue_done_reported_ = false;
  pending_done_.clear();
  pending_continue_done_.clear();
  pending_comm_disabled_.clear();
  child_messages_seen_.clear();
  shard_done_members_.clear();
  missed_heartbeats_.clear();
}

std::vector<Coordinator::Child> Coordinator::Partition(
    std::uint32_t fan_out) const {
  std::vector<Child> children;
  const std::size_t step = fan_out > 0 ? fan_out : 1;
  for (std::size_t begin = 0; begin < members_.size(); begin += step) {
    children.push_back(
        Child{net::Ipv4Address{members_[begin].agent_ip},
              fan_out > 0 ? kShardPort : kAgentPort, begin,
              std::min(members_.size(), begin + step)});
  }
  return children;
}

void Coordinator::StartOp() {
  started_ = true;
  // Hierarchical roots: contiguous shards of ≤ fan_out members, each
  // driven by the shard head co-located with its first member. The
  // flush baseline stays flat — its all-to-all marker traffic is the
  // point of that comparison.
  shard_children_ = options_.fan_out > 0 &&
                    options_.variant != ProtocolVariant::kFlushBaseline;
  children_ = Partition(shard_children_ ? options_.fan_out : 0);
  std::size_t max_shard_size = 0;
  for (const Child& c : children_) {
    max_shard_size = std::max(max_shard_size, c.end - c.first);
  }
  stats_.shard_count =
      shard_children_ ? static_cast<std::uint32_t>(children_.size()) : 0;
  stats_.max_endpoint_fanout = static_cast<std::uint32_t>(
      shard_children_ ? std::max(children_.size(), max_shard_size)
                      : members_.size());
  retransmit_interval_now_ = options_.retransmit_interval;
  retransmit_rounds_ = 0;
  op_start_ = node_.os().sim().Now();

  // Trace the op. At the root its Fig. 2 phases are spans too: the
  // freeze phase runs from the first request to the last <done>; the
  // commit phase opens when the <continue> broadcast goes out.
  obs::Tracer& tracer = node_.os().sim().tracer();
  const char* kind = is_restart_ ? "restart" : "checkpoint";
  obs::TraceAttrs op_attrs;
  op_attrs.Op(stats_.op_id);
  if (root()) {
    op_attrs.Phase("op").Agent(node_.name()).Arg("members", members_.size());
    if (shard_children_) op_attrs.Arg("shards", children_.size());
    op_span_ = tracer.BeginSpan("coord", std::string("coord.op.") + kind,
                                std::move(op_attrs));
    freeze_span_ = tracer.BeginSpan(
        "coord", "coord.phase.freeze",
        obs::TraceAttrs{}.Op(stats_.op_id).Phase("freeze").Agent(
            node_.name()));
  } else {
    op_attrs.Phase("shard")
        .Agent(node_.name())
        .Arg("kind", kind)
        .Arg("shard_size", members_.size());
    op_span_ =
        tracer.BeginSpan("coord", "coord.shard.op", std::move(op_attrs));
  }
  commit_span_ = obs::kInvalidSpanId;
  node_.os().sim().metrics().counter(role_.ops_metric).Add();

  // Write-ahead intent: on coordinator death the next incarnation learns
  // exactly which op (and which images) to abort and clean up.
  JournalRecord intent;
  intent.type = JournalRecord::Type::kIntent;
  intent.epoch = stats_.epoch;
  intent.is_restart = is_restart_;
  for (const ShardMember& sm : members_) {
    intent.members.push_back(
        JournalRecord::Member{sm.agent_ip, sm.pod, sm.image_path});
  }
  intent.fan_out = shard_children_ ? options_.fan_out : 0;
  journal_.Append(intent);

  if (test_ack_without_forward_) {
    AckWithoutForward();
    return;
  }
  for (const Child& c : children_) {
    pending_done_.insert(c.ip.value);
    pending_continue_done_.insert(c.ip.value);
    pending_comm_disabled_.insert(c.ip.value);
    SendRequest(c);
  }
  ScheduleRetransmit();
  ScheduleHeartbeat();
}

void Coordinator::AckWithoutForward() {
  // Lie upward: fabricate plausible per-member reports and acknowledge
  // without ever contacting an agent; no pod freezes, no image is
  // written.
  for (ShardMember& sm : members_) {
    if (!is_restart_) {
      sm.replicas = {ckpt::Replica{ckpt::Tier::kLocal, node_.index(), 0, 0}};
    } else {
      sm.restore_source = static_cast<std::uint8_t>(ckpt::Tier::kLocal);
    }
  }
  stats_.max_local = 1 * kMillisecond;
  stats_.max_downtime = 1 * kMillisecond;
  if (options_.variant == ProtocolVariant::kOptimized) {
    CommDisabledEverywhere();
  }
  FreezeDone();
}

void Coordinator::ArmDeadline() {
  if (options_.timeout == 0) return;
  timeout_event_ = node_.os().sim().Schedule(options_.timeout, [this] {
    timeout_event_ = sim::kInvalidEventId;
    if (!op_active_) return;
    ++stats_.timeouts;
    if (!root()) {
      // Orphaned shard: the root would have timed out already. Do not
      // leave pods frozen behind a dead root — abort locally.
      Abort("self-clean timeout");
      return;
    }
    node_.os().sim().tracer().Instant(
        "coord", "coord.timeout",
        obs::TraceAttrs{}.Op(stats_.op_id).Agent(node_.name()));
    node_.os().sim().metrics().counter("coord.timeouts_total").Add();
    Abort("timeout");
  });
}

CoordMessage Coordinator::ToChild(const Child& child, MsgType type) const {
  CoordMessage m;
  m.type = child.shard() ? ShardTypeOf(type) : type;
  m.op_id = stats_.op_id;
  m.epoch = stats_.epoch;
  if (!child.shard()) m.pod_id = members_[child.first].pod;
  if (type != MsgType::kAbort && type != MsgType::kPing) {
    m.variant = options_.variant;
  }
  return m;
}

CoordMessage Coordinator::ToParent(MsgType type) const {
  CoordMessage m;
  m.type = type;
  m.op_id = stats_.op_id;
  m.epoch = stats_.epoch;
  return m;
}

void Coordinator::SendRequest(const Child& child, bool retransmit) {
  CoordMessage m =
      ToChild(child, is_restart_ ? MsgType::kRestart : MsgType::kCheckpoint);
  m.tiered = options_.tiered;
  if (!is_restart_) {
    m.incremental = options_.incremental;
    m.copy_on_write = options_.copy_on_write;
    m.compress = options_.compress;
  }
  if (child.shard()) {
    // The shard head self-cleans shortly after this deadline if the root
    // dies.
    m.op_timeout = options_.timeout;
    for (std::size_t i = child.first; i < child.end; ++i) {
      m.shard_members.push_back(RosterEntry(
          members_[i].agent_ip, members_[i].pod, members_[i].image_path));
    }
  } else {
    m.image_path = members_[child.first].image_path;
    if (options_.variant == ProtocolVariant::kFlushBaseline) {
      for (const ShardMember& sm : members_) m.peers.push_back(sm.agent_ip);
    }
  }
  if (retransmit) NoteRetransmit(m.type);
  // A shard roster can exceed the Ethernet MTU (the stack does not
  // IP-fragment); the shard head starts once it holds member_total
  // distinct members.
  for (CoordMessage& frag : FragmentRoster(m)) {
    SendDown(child, std::move(frag));
  }
}

void Coordinator::SendDown(const Child& child, CoordMessage m) {
  ++stats_.coordinator_messages;
  ++stats_.total_messages;
  Send(net::Endpoint{child.ip, child.port}, std::move(m));
}

void Coordinator::Reply(net::Endpoint to, const CoordMessage& m) {
  // The aggregated <shard-done> can exceed the MTU just like the downward
  // roster; the root accumulates fragments per shard.
  for (CoordMessage& frag : FragmentRoster(m)) Send(to, std::move(frag));
}

void Coordinator::Send(net::Endpoint to, CoordMessage m) {
  // Every transmission gets a fresh correlation sequence (a retransmit is
  // a new transmission; a wire-level duplicate injected below it is not),
  // stamped before the fault layer so a dropped transmission still
  // leaves a send instant naming exactly one intended delivery.
  m.corr_seq = ++next_corr_seq_;
  node_.os().sim().tracer().Instant(
      "coord", "coord.msg.send",
      obs::TraceAttrs{}
          .Op(m.op_id)
          .Agent(node_.name())
          .Pod(m.pod_id)
          .Arg("type", MsgTypeName(m.type))
          .Arg("corr", CorrId(m, node_.ip().ToString()))
          .Arg("dst", to.ip.ToString()));
  node_.os().sim().metrics().counter(role_.sent_metric).Add();
  fault::MessageFate fate;
  if (fault_ != nullptr) {
    fate = fault_->OnControlSend(node_.name(), to.ip.value,
                                 static_cast<std::uint8_t>(m.type));
  }
  if (fate.drop) return;  // lost on the wire; retransmission recovers

  net::UdpDatagram dgram;
  dgram.src_port = role_.port;
  dgram.dst_port = to.port;
  dgram.payload = m.Encode();
  net::Ipv4Packet pkt;
  pkt.src = node_.ip();
  pkt.dst = to.ip;
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  int copies = fate.duplicate ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    if (fate.delay > 0) {
      // Capture the stack, not `this`: the delayed copy must still go out
      // (or at least not crash) if this coordinator incarnation dies.
      os::NetworkStack* stack = &node_.stack();
      node_.os().sim().Schedule(fate.delay,
                                [stack, pkt] { stack->SendIpv4(pkt); });
    } else {
      node_.stack().SendIpv4(pkt);
    }
  }
}

void Coordinator::NoteRetransmit(MsgType type) {
  ++stats_.retransmits;
  node_.os().sim().tracer().Instant(
      "coord", "coord.retransmit",
      obs::TraceAttrs{}.Op(stats_.op_id).Agent(node_.name()).Arg(
          "type", MsgTypeName(type)));
  node_.os().sim().metrics().counter("coord.retransmits_total").Add();
}

void Coordinator::AccumulateChildMessages(std::uint32_t child_ip,
                                          std::uint32_t cumulative) {
  // Children report the traffic below them (flush markers, a shard's
  // internal messages) as a cumulative count: adding only the high-water
  // delta keeps the grand total exact under re-sent, duplicated, or
  // reordered replies.
  std::uint32_t& seen = child_messages_seen_[child_ip];
  if (cumulative > seen) {
    stats_.total_messages += cumulative - seen;
    seen = cumulative;
  }
}

void Coordinator::RecordReport(std::uint32_t agent_ip,
                               const std::vector<ckpt::Replica>& replicas,
                               std::uint8_t restore_source) {
  for (ShardMember& sm : members_) {
    if (sm.agent_ip == agent_ip) {
      sm.replicas = replicas;
      sm.restore_source = restore_source;
      return;
    }
  }
}

void Coordinator::BroadcastContinue() {
  if (continue_sent_) return;
  continue_sent_ = true;
  if (root()) {
    commit_span_ = node_.os().sim().tracer().BeginSpan(
        "coord", "coord.phase.commit",
        obs::TraceAttrs{}.Op(stats_.op_id).Phase("commit").Agent(
            node_.name()));
  }
  if (test_ack_without_forward_) return;  // nothing was ever frozen
  int rounds = test_duplicate_continue_ ? 2 : 1;
  for (int round = 0; round < rounds; ++round) {
    for (const Child& c : children_) {
      SendDown(c, ToChild(c, MsgType::kContinue));
    }
  }
}

void Coordinator::CommDisabledEverywhere() {
  // Fig. 4: once communication is disabled on every node, no node's
  // saved state can be perturbed by any other — grant early resume.
  if (root()) {
    BroadcastContinue();
    return;
  }
  Reply(parent_, ToParent(MsgType::kShardCommDisabled));
}

void Coordinator::FreezeDone() {
  done_reported_ = true;
  stats_.checkpoint_latency = node_.os().sim().Now() - op_start_;
  node_.os().sim().tracer().EndSpan(freeze_span_);
  freeze_span_ = obs::kInvalidSpanId;
  if (root()) {
    BroadcastContinue();  // Step 3 (no-op if Fig. 4 already sent it)
  } else {
    CoordMessage done = ToParent(MsgType::kShardDone);
    done.local_duration = stats_.max_local;
    done.downtime = stats_.max_downtime;
    if (options_.tiered) {
      // Per-member tiered reports (replicas / restore sources) for the
      // root's generation manifest. The root matches members by agent
      // ip, so the image paths stay home — fewer bytes, fewer fragments.
      done.shard_members = members_;
      for (ShardMember& sm : done.shard_members) sm.image_path.clear();
    }
    done.extra_messages = stats_.total_messages;  // cumulative
    last_done_reply_ = done;
    Reply(parent_, done);
  }
  // With copy-on-write the <continue-done>s can precede the last <done>
  // (resume happens before the disk write finishes).
  if (continue_done_reported_) Finish(true);
}

void Coordinator::ContinueDone() {
  continue_done_reported_ = true;
  if (!root()) {
    CoordMessage cd = ToParent(MsgType::kShardContinueDone);
    cd.local_duration = stats_.max_continue;
    cd.extra_messages = stats_.total_messages;  // cumulative
    last_continue_done_reply_ = cd;
    Reply(parent_, cd);
  }
  if (done_reported_) Finish(true);
}

std::size_t Coordinator::FenceAndReap() {
  // A hierarchical root aborts the shard heads (they fence and clean
  // their shards) AND every agent directly — a crashed shard head must
  // not be able to leave its shard frozen behind a dead op.
  if (shard_children_) {
    for (const Child& c : children_) {
      ++stats_.aborts;
      SendDown(c, ToChild(c, MsgType::kAbort));
    }
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Child leaf{net::Ipv4Address{members_[i].agent_ip}, kAgentPort, i, i + 1};
    ++stats_.aborts;
    SendDown(leaf, ToChild(leaf, MsgType::kAbort));
    // Aborted checkpoints must not leak partial images. The agents
    // delete their own images too; this covers members whose agent is
    // dead or was never reached — zero orphans on any tier, pending
    // netfs flushes included.
    const std::string& path = members_[i].image_path;
    if (is_restart_ || path.empty()) continue;
    if (store_.RemoveEverywhere(path) > 0) ++removed;
  }
  return removed;
}

void Coordinator::Abort(const std::string& reason, bool tell_parent) {
  if (!op_active_) return;
  CRUZ_WARN("coord") << node_.name() << ": operation " << stats_.op_id
                     << " aborted (" << reason << ")";
  stats_.abort_reason = reason;
  node_.os().sim().tracer().Instant(
      "coord", role_.abort_event,
      obs::TraceAttrs{}.Op(stats_.op_id).Agent(node_.name()).Arg("reason",
                                                                reason));
  node_.os().sim().metrics().counter(role_.abort_metric).Add();
  last_aborted_op_ = std::max(last_aborted_op_, stats_.op_id);
  FenceAndReap();
  if (tell_parent && !root()) Reply(parent_, ToParent(MsgType::kShardFailed));
  Finish(false);
}

void Coordinator::OnDatagram(net::Endpoint from,
                             const cruz::Bytes& payload) {
  if (crashed_) return;  // a dead process hears nothing
  CoordMessage m;
  try {
    m = CoordMessage::Decode(payload);
  } catch (const cruz::CodecError&) {
    return;
  }
  // A shard request always carries a roster; one without is malformed.
  if ((m.type == MsgType::kShardCheckpoint ||
       m.type == MsgType::kShardRestart) &&
      m.shard_members.empty()) {
    return;
  }
  // Record the receive instant before the op-liveness check: a reply for
  // a finished (or aborted) op is still a real delivery, and the causal
  // analyzer needs the endpoint to close the send's edge instead of
  // reporting it unmatched. The corr echo comes straight off the wire.
  {
    obs::TraceAttrs attrs;
    attrs.Op(m.op_id).Agent(node_.name()).Arg("type", MsgTypeName(m.type));
    if (m.corr_seq != 0) {
      attrs.Arg("corr", CorrId(m, from.ip.ToString()));
    }
    attrs.Arg("src", from.ip.ToString());
    node_.os().sim().tracer().Instant("coord", "coord.msg.recv",
                                      std::move(attrs));
  }
  if (IsParentRequest(m.type)) {
    if (!root()) OnParentRequest(m, from);
    return;
  }
  OnChildReply(m, from.ip);
}

void Coordinator::OnParentRequest(const CoordMessage& m, net::Endpoint from) {
  // Epoch fencing, same rule as the agents: requests below the observed
  // high-water mark come from a dead root incarnation.
  if (m.epoch < epoch_) {
    CRUZ_WARN("coord") << node_.name() << ": fenced stale shard request "
                       << MsgTypeName(m.type) << " (epoch " << m.epoch
                       << " < " << epoch_ << ")";
    return;
  }
  epoch_ = m.epoch;
  const bool this_op = op_active_ && m.op_id == stats_.op_id;
  const bool last_op = last_completed_op_ != 0 && m.op_id == last_completed_op_;
  switch (m.type) {
    case MsgType::kShardCheckpoint:
    case MsgType::kShardRestart:
      OnShardRequest(m, from);
      break;
    case MsgType::kShardContinue:
      if (!this_op) {
        if (last_op) Reply(from, last_continue_done_reply_);
        break;
      }
      if (!started_) break;  // roster still assembling; <continue> is stale
      BroadcastContinue();
      if (pending_continue_done_.empty()) {
        if (!continue_done_reported_) {
          ContinueDone();
        } else {
          // Copy-on-write overtake: <continue-done> already went out (and
          // was lost — the root is re-asking) while <done> is pending.
          Reply(from, last_continue_done_reply_);
        }
      }
      break;
    case MsgType::kShardAbort:
      last_aborted_op_ = std::max(last_aborted_op_, m.op_id);
      if (this_op) Abort("root abort", /*tell_parent=*/false);
      break;
    case MsgType::kPing: {
      // Liveness: answered even mid-op (the probe asks "is the process
      // alive", not "is the shard finished").
      CoordMessage pong;
      pong.type = MsgType::kShardPong;
      pong.op_id = m.op_id;
      pong.epoch = m.epoch;
      Reply(from, pong);
      break;
    }
    default:
      break;
  }
}

void Coordinator::OnShardRequest(const CoordMessage& m, net::Endpoint from) {
  if (op_active_ && m.op_id == stats_.op_id) {
    if (started_) {
      // A re-request after our <shard-done> went out means the reply was
      // lost: re-answer. Before <shard-done> the root is just impatient.
      if (done_reported_) Reply(from, last_done_reply_);
      return;
    }
    // Another roster fragment (or a retransmitted one — the dedup below
    // absorbs duplicates).
    for (const ShardMember& sm : m.shard_members) {
      bool known = false;
      for (const ShardMember& have : members_) {
        if (have.agent_ip == sm.agent_ip) {
          known = true;
          break;
        }
      }
      if (!known) members_.push_back(sm);
    }
    if (members_.size() >= member_total_) StartOp();
    return;
  }
  if (last_completed_op_ != 0 && m.op_id == last_completed_op_) {
    // The root retransmitted a request we already served: the original
    // <shard-done> was lost. Re-answer from the cache.
    Reply(from, last_done_reply_);
    return;
  }
  if (m.op_id <= last_aborted_op_) return;  // overtaken by its abort
  if (op_active_) {
    // A newer epoch supersedes the in-flight op: the root gave up on it
    // (we missed the abort) and moved on.
    if (m.epoch <= stats_.epoch) return;
    Abort("superseded", /*tell_parent=*/false);
  }

  Options options;
  options.variant = m.variant;
  // Self-clean armed on the first fragment: a roster half-delivered by a
  // dying root must not stay active forever either.
  options.timeout = m.op_timeout > 0 ? m.op_timeout + kSelfCleanSlack : 0;
  options.retransmit_interval = kShardRetransmitInterval;
  options.max_retransmit_rounds = kShardMaxRetransmitRounds;
  options.incremental = m.incremental;
  options.copy_on_write = m.copy_on_write;
  options.compress = m.compress;
  options.tiered = m.tiered;
  OpenOp(m.type == MsgType::kShardRestart, options, m.shard_members);
  stats_.op_id = m.op_id;
  stats_.epoch = m.epoch;
  parent_ = from;
  member_total_ = std::max(member_total_, m.member_total);
  ArmDeadline();
  if (members_.size() >= member_total_) StartOp();
}

void Coordinator::OnChildReply(const CoordMessage& m, net::Ipv4Address from) {
  if (!op_active_ || m.op_id != stats_.op_id) return;
  ++stats_.total_messages;
  const std::uint32_t ip = from.value;
  switch (LeafTypeOf(m.type)) {
    case MsgType::kCommDisabled:
      if (options_.variant == ProtocolVariant::kOptimized &&
          pending_comm_disabled_.erase(ip) != 0 &&
          pending_comm_disabled_.empty()) {
        CommDisabledEverywhere();
      }
      break;
    case MsgType::kDone: {
      if (pending_done_.count(ip) == 0) break;  // dup/settled
      AccumulateChildMessages(ip, m.extra_messages);
      stats_.max_local = std::max(stats_.max_local, m.local_duration);
      stats_.max_downtime = std::max(stats_.max_downtime, m.downtime);
      // Tiered mode: remember where each member's image landed (feeds
      // the manifest) / which tier served its restore.
      if (m.type == MsgType::kDone) {
        RecordReport(ip, m.replicas, m.restore_source);
      } else {
        for (const ShardMember& sm : m.shard_members) {
          RecordReport(sm.agent_ip, sm.replicas, sm.restore_source);
        }
        // The aggregated report may arrive in roster fragments (tiered
        // per-member reports can exceed the MTU): the shard settles only
        // once member_total distinct member reports are in.
        std::set<std::uint32_t>& seen = shard_done_members_[ip];
        for (const ShardMember& sm : m.shard_members) {
          seen.insert(sm.agent_ip);
        }
        if (seen.size() < m.member_total) break;
      }
      pending_done_.erase(ip);
      if (pending_done_.empty()) FreezeDone();
      break;
    }
    case MsgType::kContinueDone:
      if (pending_continue_done_.erase(ip) == 0) break;
      stats_.max_continue = std::max(stats_.max_continue, m.local_duration);
      AccumulateChildMessages(ip, m.extra_messages);
      if (pending_continue_done_.empty() && continue_sent_) ContinueDone();
      break;
    case MsgType::kPong:
      missed_heartbeats_[ip] = 0;
      break;
    case MsgType::kFailed:
      // A member cannot perform its local part (unknown pod, image I/O
      // error, unreadable image), or a shard head gave up on its shard
      // (dead agent, retry cap, self-clean): the op can never complete —
      // abort now rather than waiting out the timeout.
      Abort(std::string(m.type == MsgType::kShardFailed ? "shard "
                                                        : "member ") +
            std::to_string(ip) + " failed");
      break;
    default:
      break;
  }
}

void Coordinator::ScheduleRetransmit() {
  if (options_.retransmit_interval == 0) return;
  // Jitter the interval ±25% (seeded: the simulator RNG) so retransmit
  // rounds from concurrent coordinators cannot stay synchronized.
  DurationNs base = retransmit_interval_now_;
  DurationNs jittered =
      base - base / 4 + node_.os().sim().rng().NextBelow(base / 2 + 1);
  retransmit_event_ = node_.os().sim().Schedule(jittered, [this] {
    retransmit_event_ = sim::kInvalidEventId;
    if (!op_active_) return;
    const bool owed =
        !pending_done_.empty() ||
        (continue_sent_ && !pending_continue_done_.empty());
    if (owed) {
      if (options_.max_retransmit_rounds != 0 &&
          ++retransmit_rounds_ > options_.max_retransmit_rounds) {
        Abort("retry cap");
        return;
      }
      RetransmitPending();
      // Exponential backoff, capped at 4x the initial interval, which
      // keeps loss recovery responsive while shedding load.
      retransmit_interval_now_ = std::min(2 * retransmit_interval_now_,
                                          4 * options_.retransmit_interval);
    } else {
      // The children owe nothing — a shard head waiting on its root
      // (lost upward replies are healed by the root's own retransmits,
      // and an orphaned shard is bounded by the self-clean deadline), so
      // the retry cap must not tick.
      retransmit_rounds_ = 0;
      retransmit_interval_now_ = options_.retransmit_interval;
    }
    ScheduleRetransmit();
  });
}

void Coordinator::RetransmitPending() {
  // Re-send the phase-appropriate request to every child that has not
  // answered it. Agents and shard heads deduplicate by op id and
  // re-send lost replies.
  for (const Child& c : children_) {
    if (pending_done_.count(c.ip.value) != 0) {
      SendRequest(c, /*retransmit=*/true);
    } else if (continue_sent_ &&
               pending_continue_done_.count(c.ip.value) != 0) {
      CoordMessage m = ToChild(c, MsgType::kContinue);
      NoteRetransmit(m.type);
      SendDown(c, std::move(m));
    }
  }
}

void Coordinator::ScheduleHeartbeat() {
  if (options_.heartbeat_interval == 0) return;
  heartbeat_event_ = node_.os().sim().Schedule(
      options_.heartbeat_interval, [this] {
        heartbeat_event_ = sim::kInvalidEventId;
        if (!op_active_) return;
        HeartbeatTick();
      });
}

void Coordinator::HeartbeatTick() {
  // A hierarchical root probes the shard heads, not the agents: each
  // shard head watches its own shard (a dead agent surfaces as its
  // <shard-failed>), so a silent shard head means the head itself is
  // dead.
  for (const Child& c : children_) {
    std::uint32_t key = c.ip.value;
    if (pending_done_.count(key) == 0 &&
        pending_continue_done_.count(key) == 0) {
      continue;  // child already finished; no liveness concern
    }
    std::uint32_t missed = ++missed_heartbeats_[key];
    if (missed > options_.max_missed_heartbeats) {
      Abort(std::string(c.shard() ? "shard " : "agent ") +
            std::to_string(key) + " unresponsive");
      return;
    }
    SendDown(c, ToChild(c, MsgType::kPing));
  }
  ScheduleHeartbeat();
}

void Coordinator::EndSpans(const char* outcome) {
  obs::Tracer& tracer = node_.os().sim().tracer();
  tracer.EndSpan(freeze_span_);  // still open on abort paths
  freeze_span_ = obs::kInvalidSpanId;
  tracer.EndSpan(commit_span_);
  commit_span_ = obs::kInvalidSpanId;
  if (root()) {
    tracer.EndSpan(
        op_span_,
        {{"success", stats_.success ? "true" : "false"},
         {"checkpoint_latency_ns", std::to_string(stats_.checkpoint_latency)},
         {"coordination_overhead_ns",
          std::to_string(stats_.coordination_overhead)},
         {"max_downtime_ns", std::to_string(stats_.max_downtime)},
         {"retransmits", std::to_string(stats_.retransmits)},
         {"messages", std::to_string(stats_.total_messages)}});
  } else {
    tracer.EndSpan(op_span_,
                   {{"outcome", outcome},
                    {"shard_messages", std::to_string(stats_.total_messages)}});
  }
  op_span_ = obs::kInvalidSpanId;
}

void Coordinator::Finish(bool success) {
  CancelTimers();
  JournalRecord outcome;
  outcome.type =
      success ? JournalRecord::Type::kCommit : JournalRecord::Type::kAbort;
  outcome.epoch = stats_.epoch;
  outcome.is_restart = is_restart_;
  journal_.Append(outcome);
  stats_.success = success;
  stats_.full_latency = node_.os().sim().Now() - op_start_;
  DurationNs local = stats_.max_local + stats_.max_continue;
  stats_.coordination_overhead =
      stats_.full_latency > local ? stats_.full_latency - local : 0;
  op_active_ = false;
  if (success) {
    ++ops_served_;
    last_completed_op_ = stats_.op_id;
  }
  EndSpans(success ? "ok" : "abort");
  if (!root()) return;  // a shard head's outcome already went upward

  obs::MetricsRegistry& metrics = node_.os().sim().metrics();
  if (!success) metrics.counter("coord.ops_failed").Add();
  if (success && !is_restart_) {
    metrics.histogram("coord.checkpoint_latency_us")
        .Record(stats_.checkpoint_latency / kMicrosecond);
    metrics.histogram("coord.coordination_overhead_us")
        .Record(stats_.coordination_overhead / kMicrosecond);
    metrics.histogram("coord.downtime_us")
        .Record(stats_.max_downtime / kMicrosecond);
  }
  CRUZ_INFO("coord") << (is_restart_ ? "restart" : "checkpoint") << " op "
                     << stats_.op_id << (success ? " ok" : " FAILED")
                     << ": latency=" << ToMillis(stats_.checkpoint_latency)
                     << "ms overhead="
                     << ToMicros(stats_.coordination_overhead) << "us msgs="
                     << stats_.total_messages;
  for (const ShardMember& sm : members_) {
    stats_.replica_sets.push_back(sm.replicas);
    stats_.restore_sources.push_back(sm.restore_source);
  }
  if (done_fn_) {
    DoneFn fn = std::move(done_fn_);
    fn(stats_);
  }
}

}  // namespace cruz::coord
