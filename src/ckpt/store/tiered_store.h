// The one checkpoint store: every image, manifest and SEQ counter is
// written, read, listed, removed, discarded and evicted here.
//
// Cruz (§2) keeps every image on one shared network filesystem. That is
// the zero-local-tier case of an SCR-style hierarchy (LLNL SCR), which
// spreads each image across storage tiers so a restartable generation
// survives node loss, netfs outage and disk-full:
//
//   tier 1  the writer's node-local disk cache (os::LocalDiskStore) —
//           fast, but shares the node's failure domain;
//   tier 2  the writer's ring partner's disk, written in parallel with
//           tier 1 (partner(i) = next live slot after i, deterministic);
//   tier 3  the shared netfs, filled by a background flush with
//           retry/backoff so a temporary outage only delays durability.
//
// Each op picks its tier set with one bit (coord Options::tiered, passed
// down as `tiered`): zero local tiers (the netfs alone, exactly as Cruz
// persists images) or all three. A zero-tier op writes and reads the
// netfs directly: it keeps no commit record, emits no ckpt.store.* event
// or metric, and adds no copy or CRC pass.
//
// Write path: CommitImage lands the image (tiered: on tier 1 + tier 2,
// with the netfs flush in the background) and returns the replica set
// the agent reports in <done>. Restore path: a tiered read resolves
// local → partner → netfs, falling back across tiers on -ENOENT or CRC
// mismatch, rebuilds missing local copies ("rebuild-on-restart"), and
// traces the chosen source + fallback chain as ckpt.store.* events so
// cruz_analyze can attribute restore traffic per tier. Retention keeps
// the last K generations on the node disks once they are durable on the
// netfs. -ENOSPC on any tier runs one eviction policy (EvictForSpace)
// instead of failing the write.
//
// The store is pure state + scheduling; I/O *cost* is a model the
// writer's node supplies (Node::DiskWriteDuration / PartnerWriteDuration).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "common/bytes.h"
#include "common/sysresult.h"
#include "common/units.h"
#include "fault/fault.h"
#include "os/file_store.h"
#include "os/netfs.h"
#include "os/node.h"
#include "sim/simulator.h"

namespace cruz::ckpt {

class TieredStore {
 public:
  // Partner replicas live on the partner's disk under this prefix, so a
  // node's own images and the copies it guards for its partner never
  // collide.
  static constexpr const char* kPartnerPrefix = "/partner";

  // Outcome of one cross-tier read.
  struct ResolveResult {
    Tier source = Tier::kNone;
    std::uint32_t node_index = 0;  // holder (0 for netfs)
    std::size_t fallbacks = 0;     // tiers/copies tried before success
    std::string chain;             // e.g. "local:miss,partner(node2):ok"
    bool rebuilt_local = false;
  };

  // Outcome of one image commit.
  struct Commit {
    // Where the image landed: local + partner in tiered mode; empty with
    // zero local tiers, where the netfs copy is the only one.
    std::vector<Replica> replicas;
    // Foreground write time the writer is charged.
    DurationNs duration = 0;
    // Why no tier accepted the image; nullptr once committed.
    const char* failure = nullptr;
  };

  TieredStore(sim::Simulator& sim, os::NetworkFileSystem& netfs);
  // A store over the netfs alone, with no nodes and no simulator: only
  // zero-local-tier ops are valid on it.
  explicit TieredStore(os::NetworkFileSystem& netfs);

  // Ring membership, in registration order. Register every worker node
  // once at cluster construction; failed nodes stay in the ring (their
  // slot is skipped while down).
  void RegisterNode(os::Node* node);
  os::Node* PartnerOf(std::uint32_t node_index) const;
  os::Node* NodeByIndex(std::uint32_t node_index) const;

  void set_injector(fault::Injector* injector) { injector_ = injector; }
  // Keep the newest K generations on the node disks; older generations
  // are dropped from tiers 1-2 once every file is durable on the netfs.
  void set_keep_local_generations(std::size_t k) { keep_local_ = k; }
  void set_flush_retry_interval(DurationNs d) { flush_retry_ = d; }
  void set_max_flush_attempts(std::size_t n) { max_flush_attempts_ = n; }

  // --- write path ---------------------------------------------------------
  // Commits `image` written by `writer`. Zero local tiers: onto the netfs,
  // charged as one disk write. Tiered: onto the writer's local disk and
  // its partner's disk (parallel writes; the duration is the max of the
  // two tier costs), then the background netfs flush is scheduled.
  // -ENOSPC runs EvictForSpace and retries.
  Commit CommitImage(os::Node& writer, const std::string& path,
                     cruz::Bytes image, bool tiered);

  // Metadata (generation manifests, SEQ). Zero local tiers: a netfs
  // write, which can fail. Tiered: replicated synchronously to every live
  // node's disk and flushed to the netfs in the background, so commits
  // survive a netfs outage ("manifest commits late but intact").
  SysResult PutMeta(const std::string& path, cruz::Bytes bytes, bool tiered);
  SysResult ReadMeta(const std::string& path, cruz::Bytes& out,
                     bool tiered) const;

  // Paths under `prefix` on the op's tiers (tiered: the union across
  // every tier, partner-copy prefixes stripped); sorted, deduplicated.
  std::vector<std::string> ListAll(const std::string& prefix,
                                   bool tiered) const;

  // --- restore path -------------------------------------------------------
  // Cross-tier read: reader-local → partner tier (any other live node,
  // own copy or guarded copy) → netfs. Copies whose size/CRC disagree
  // with the commit-time record are skipped (fallback). When `reader` is
  // set and the winning copy was remote, the local tier is repopulated.
  // `trace` controls ckpt.store.resolve events + restore-source counters
  // (restores trace; verification probes do not).
  SysResult Resolve(os::Node* reader, const std::string& path,
                    cruz::Bytes& out, ResolveResult* rr = nullptr,
                    bool trace = true);
  bool HasAnyReplica(const std::string& path) const;

  // --- GC -----------------------------------------------------------------
  // Removes every copy of `path` (all disks, both prefixes, netfs) and
  // cancels any pending flush. Returns the number of copies removed.
  std::size_t RemoveEverywhere(const std::string& path);
  // Discard of a generation directory (images + manifest): its netfs
  // files, and in tiered mode every other tier's copies and pending
  // flushes too. Tiered netfs copies that cannot be removed now (outage)
  // are tombstoned and reaped when the netfs returns. Returns the number
  // of files removed.
  std::size_t DiscardPrefix(const std::string& prefix, bool tiered);

  // --- introspection (tests, benches) -------------------------------------
  bool FlushedToNetfs(const std::string& path) const;
  std::size_t PendingFlushCount() const { return pending_flush_.size(); }
  std::uint64_t flush_attempts_total() const { return flush_attempts_total_; }
  // Total bytes stored under `prefix` across node disks (both prefixes)
  // and the netfs; the zero-orphan assertions use this.
  std::uint64_t BytesUnderPrefix(const std::string& prefix) const;

 private:
  struct ImageMeta {
    std::uint64_t size = 0;
    std::uint32_t crc32 = 0;
    std::uint32_t writer = 0;
    bool flushed = false;
  };
  struct FlushState {
    std::uint32_t writer = 0;
    DurationNs backoff = 0;
    std::size_t attempts = 0;
  };

  void ScheduleFlush(const std::string& path, std::uint32_t writer,
                     DurationNs after);
  void AttemptFlush(const std::string& path);
  // Finds any live copy of `path` on the node disks (own or guarded).
  bool FindAnyCopy(const std::string& path, cruz::Bytes& out) const;
  // Writes `path` (under kPartnerPrefix if `guarded`) to `node`'s disk,
  // or to the netfs for nullptr, evicting for space while -ENOSPC
  // persists and EvictForSpace finds something.
  SysResult WriteMakingRoom(os::Node* node, const std::string& path,
                            const cruz::Bytes& bytes, bool tiered,
                            bool guarded = false);
  // The one ENOSPC policy. Frees room on `full` (a node disk; nullptr =
  // the netfs) for `path` by dropping copies of one older generation,
  // oldest first, never `path`'s own. Pass 1 takes only copies another
  // tier still holds (a disk copy already flushed to the netfs; a netfs
  // copy still on some disk). Pass 2 may take a generation's last copies
  // on that tier, never the newest committed generation's, and never for
  // a background netfs flush, which retries later instead. With zero
  // local tiers the netfs is the only tier, so pass 2 takes a whole
  // committed generation (Cruz's single-netfs rule). Returns true if
  // anything was freed.
  bool EvictForSpace(os::Node* full, const std::string& path, bool tiered);
  // Drops tier-1/2 copies of generations older than the newest K once
  // they are fully netfs-durable.
  void EnforceRetention();
  void ScheduleReaper();
  void ReapTombstones();
  bool Unreachable(const os::Node* node) const;
  void NotifyNoSpace(const std::string& store, const std::string& path);
  // ".../gen_000007/pod_1.img" -> ".../gen_000007" ("" if not gen-shaped).
  static std::string GenPrefixOf(const std::string& path);

  sim::Simulator* sim_;  // nullptr: zero-local-tier ops only
  os::NetworkFileSystem& netfs_;
  fault::Injector* injector_ = nullptr;
  std::vector<os::Node*> ring_;
  std::size_t keep_local_ = 2;
  DurationNs flush_retry_ = 100 * kMillisecond;
  DurationNs flush_retry_max_ = 2 * kSecond;
  std::size_t max_flush_attempts_ = 64;
  // Commit-time truth per image path: expected size/CRC and durability.
  std::map<std::string, ImageMeta> index_;
  std::map<std::string, FlushState> pending_flush_;
  // Generation prefix -> files committed under it (images + manifests).
  std::map<std::string, std::set<std::string>> gen_files_;
  // Netfs paths whose removal failed during an outage; reaped later.
  std::set<std::string> tombstones_;
  bool reaper_scheduled_ = false;
  std::uint64_t flush_attempts_total_ = 0;

  friend class TieredReadView;
};

// FileStore view over the op's tiers for one reader: restore,
// LoadImageChain and the generation verifier read through this. With
// zero local tiers it reads the netfs directly. Tiered, every link of an
// incremental chain resolves across tiers independently, and reads are
// memoized per view (one resolve — and one trace event — per path).
class TieredReadView : public os::FileStore {
 public:
  TieredReadView(TieredStore& store, os::Node* reader, bool tiered,
                 bool trace = true)
      : store_(store), reader_(reader), tiered_(tiered), trace_(trace) {}

  bool Exists(const std::string& path) const override {
    return tiered_ ? store_.HasAnyReplica(path) : store_.netfs_.Exists(path);
  }
  SysResult ReadFile(const std::string& path,
                     cruz::Bytes& out) const override;
  SysResult FileSize(const std::string& path) const override;

  // Resolution of the first (head) path read through this view, for
  // restore-source attribution (source kNone with zero local tiers).
  const TieredStore::ResolveResult& head_result() const {
    return head_result_;
  }

 private:
  TieredStore& store_;
  os::Node* reader_;
  bool tiered_;
  bool trace_;
  mutable bool have_head_ = false;
  mutable TieredStore::ResolveResult head_result_;
  mutable std::map<std::string, cruz::Bytes> cache_;
};

}  // namespace cruz::ckpt
