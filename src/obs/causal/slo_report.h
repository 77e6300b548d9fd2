// SLO violation attribution: joining `slo.violation` windows against the
// causal critical path.
//
// The load pipeline (src/load + src/obs/latency) stamps one
// `slo.violation` instant per breached latency window onto the same
// trace timeline the checkpoint/migration coordinator writes its op
// spans to. This module answers "*why* was that window bad": each
// violation window is intersected with the per-op phase tiling the
// CriticalPathAnalyzer produced, and charged to the (phase, node) with
// the largest time overlap — "save-downtime on node1 during checkpoint
// op 3", not just "p99 was 87 ms".
//
// The join, in priority order:
//   1. direct overlap with an op's phase segments (max overlap wins;
//      ties break by canonical phase order, then node, then op id);
//   2. overlap with an op's post-op TCP retransmit-recovery tail,
//      charged as pseudo-phase "tcp-recovery" to the op's dominant
//      straggler (the stall is the op's fault, just after its wall),
//      labelled "kick" or "rto" by what started that recovery;
//   3. a window that begins within one window-length of the nearest
//      preceding op's extended end (queued requests draining right
//      after resume) is charged to that op's dominant phase;
//   4. otherwise "unattributed" — load benches assert this is zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/causal/causal_graph.h"
#include "obs/causal/critical_path.h"

namespace cruz::obs::causal {

struct SloAttribution {
  // The violation, parsed from the slo.violation instant's args.
  std::string objective;
  std::uint64_t window_index = 0;
  TimeNs window_begin = 0;
  TimeNs window_end = 0;
  std::uint64_t observed_ns = 0;
  std::uint64_t threshold_ns = 0;
  std::uint64_t count = 0;

  // The join result.
  std::string phase;          // winning phase, "tcp-recovery", or
                              // "unattributed"
  std::string node;           // straggler charged ("" if unattributed)
  std::uint64_t op_id = 0;    // the charged op (meaningless if
                              // unattributed)
  std::string op_kind;
  DurationNs overlap_ns = 0;  // window∩segment time behind the verdict
                              // (0 for the queue-drain fallback)
  // For "tcp-recovery": what started the recovery, "kick" (the resume
  // point's TcpConnection::Kick) or "rto" (a retransmission timeout);
  // "" if the trace shows neither.
  std::string recovery;
};

struct SloReport {
  std::vector<SloAttribution> violations;
  std::size_t attributed = 0;  // violations with a concrete phase+node
};

// Joins every slo.violation instant in the graph against `ops`
// (typically CriticalPathAnalyzer::AnalyzeAll() on the same graph).
SloReport BuildSloReport(const CausalGraph& graph,
                         const std::vector<OpBreakdown>& ops);

// Deterministic renderings (byte-identical across same-seed runs).
std::string RenderSloReport(const SloReport& report);
std::string RenderSloJson(const SloReport& report);

}  // namespace cruz::obs::causal
