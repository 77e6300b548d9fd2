// Multi-tier checkpoint storage (DESIGN.md §11): commit to local +
// partner disks with a background netfs flush, restore across tiers with
// CRC-checked fallback and rebuild-on-restart, survive node loss, netfs
// outage and disk-full. The acceptance scenario — a full checkpoint +
// restart cycle with the netfs unavailable throughout — lives here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "ckpt/generation.h"
#include "ckpt/store/replica.h"
#include "ckpt/store/tiered_store.h"
#include "coord/coordinator.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

constexpr std::uint8_t kLocal = static_cast<std::uint8_t>(ckpt::Tier::kLocal);
constexpr std::uint8_t kPartner =
    static_cast<std::uint8_t>(ckpt::Tier::kPartner);
constexpr std::uint8_t kNetfs = static_cast<std::uint8_t>(ckpt::Tier::kNetfs);

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

coord::Coordinator::Options TieredOptions() {
  coord::Coordinator::Options options;
  options.tiered = true;
  return options;
}

std::string ArgOf(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

// A tiered checkpoint lands every image on the writer's disk plus its
// ring partner's, records both replicas in the manifest, and drains the
// background netfs flush shortly after.
TEST(TieredStore, CheckpointRecordsReplicasAndFlushes) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(result.stats.success) << result.stats.abort_reason;

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  auto manifest = store.ReadManifest(result.generation);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->size(), 2u);
  for (const ckpt::ManifestEntry& e : *manifest) {
    ASSERT_GE(e.replicas.size(), 2u) << e.image_path;
    EXPECT_EQ(e.replicas[0].tier, ckpt::Tier::kLocal);
    EXPECT_EQ(e.replicas[1].tier, ckpt::Tier::kPartner);
    EXPECT_NE(e.replicas[0].node_index, e.replicas[1].node_index);
    EXPECT_GT(e.size, 0u);
    EXPECT_EQ(e.replicas[0].size, e.size);
    EXPECT_EQ(e.replicas[0].crc32, e.crc32);

    os::Node* writer = c.tiered().NodeByIndex(e.replicas[0].node_index);
    os::Node* partner = c.tiered().NodeByIndex(e.replicas[1].node_index);
    ASSERT_NE(writer, nullptr);
    ASSERT_NE(partner, nullptr);
    EXPECT_TRUE(writer->disk().Exists(e.image_path));
    EXPECT_TRUE(partner->disk().Exists(
        std::string(ckpt::TieredStore::kPartnerPrefix) + e.image_path));
  }

  // The background flush makes every image netfs-durable.
  c.sim().RunFor(2 * kSecond);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
  for (const ckpt::ManifestEntry& e : *manifest) {
    EXPECT_TRUE(c.tiered().FlushedToNetfs(e.image_path)) << e.image_path;
    EXPECT_TRUE(c.fs().Exists(e.image_path)) << e.image_path;
  }
}

// Acceptance criterion: the netfs is unavailable for the entire
// checkpoint + restart cycle. The generation commits to local + partner,
// the fleet restores from those tiers, and the trace attributes every
// restored image to its actual source tier. When the outage ends, the
// flush drains and the manifest lands on the netfs late but intact.
TEST(TieredStore, FullCycleSurvivesNetfsOutage) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  c.fs().set_available(false);
  auto ckpt_result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  auto manifest = store.ReadManifest(ckpt_result.generation);
  ASSERT_TRUE(manifest.has_value());

  // The flush keeps retrying with backoff while the netfs is down.
  EXPECT_GT(c.tiered().PendingFlushCount(), 0u);
  std::uint64_t attempts_early = c.tiered().flush_attempts_total();
  c.sim().RunFor(3 * kSecond);
  EXPECT_GT(c.tiered().flush_attempts_total(), attempts_early);
  for (const ckpt::ManifestEntry& e : *manifest) {
    EXPECT_FALSE(c.tiered().FlushedToNetfs(e.image_path));
  }

  // Lose the pods and restore the whole fleet — netfs still down.
  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  EXPECT_EQ(restart.generation, ckpt_result.generation);
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));

  // Every member restored from a disk tier, and said so in the trace.
  ASSERT_EQ(restart.stats.restore_sources.size(), 2u);
  for (std::uint8_t src : restart.stats.restore_sources) {
    EXPECT_TRUE(src == kLocal || src == kPartner)
        << "restore source " << static_cast<int>(src);
  }
  obs::TraceQuery query(c.sim().tracer());
  std::size_t attributed = 0;
  for (const obs::TraceEvent* e :
       query.Select(obs::TraceQuery::Filter{}.Name("agent.restore"))) {
    std::string source = ArgOf(*e, "source");
    EXPECT_TRUE(source == "local" || source == "partner") << source;
    ++attributed;
  }
  EXPECT_EQ(attributed, 2u);

  // Outage ends: the flush drains, and the manifest — committed to the
  // disk tiers during the outage — arrives on the netfs intact.
  c.fs().set_available(true);
  c.sim().RunFor(5 * kSecond);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
  for (const ckpt::ManifestEntry& e : *manifest) {
    EXPECT_TRUE(c.tiered().FlushedToNetfs(e.image_path));
  }
  ckpt::GenerationStore netfs_only(c.fs(),
                                   ckpt::GenerationStore::kDefaultRoot);
  EXPECT_EQ(netfs_only.NewestIntact().value_or(0), ckpt_result.generation);
}

// Failure-domain-aware restart: the writer node dies (taking its tier-1
// cache with it) before anything reached the netfs. The partner replica
// restores the pod on a third node, and rebuild-on-restart repopulates
// that node's local cache.
TEST(TieredStore, NodeAndTier1LossRestoresFromPartner) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  c.fs().set_available(false);  // nothing ever reaches the netfs
  auto ckpt_result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  auto manifest = store.ReadManifest(ckpt_result.generation);
  ASSERT_TRUE(manifest.has_value());
  std::string image_a;
  for (const ckpt::ManifestEntry& e : *manifest) {
    if (e.pod == a) image_a = e.image_path;
  }
  ASSERT_FALSE(image_a.empty());

  // Node 1 dies: processes gone, local disk wiped.
  c.node(0).Fail();
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);

  // Restore pod a on node 3 (no copy there) and pod b back on node 2.
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(2, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 2, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));

  ASSERT_EQ(restart.stats.restore_sources.size(), 2u);
  EXPECT_EQ(restart.stats.restore_sources[0], kPartner);  // pod a
  EXPECT_EQ(restart.stats.restore_sources[1], kLocal);    // pod b
  // Rebuild-on-restart: node 3 now caches pod a's image locally.
  EXPECT_TRUE(c.node(2).disk().Exists(image_a));
}

// CRC-checked fallback: a silently corrupted local copy is skipped for
// the partner's, a corrupted partner copy for the netfs replica, and the
// resolve trace names the rejected tiers.
TEST(TieredStore, CorruptCopiesFallBackAcrossTiers) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto ckpt_result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;
  c.sim().RunFor(2 * kSecond);  // flush to the netfs

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  auto manifest = store.ReadManifest(ckpt_result.generation);
  ASSERT_TRUE(manifest.has_value());
  const ckpt::ManifestEntry* entry_a = nullptr;
  for (const ckpt::ManifestEntry& e : *manifest) {
    if (e.pod == a) entry_a = &e;
  }
  ASSERT_NE(entry_a, nullptr);

  // Rot both disk copies of pod a's image; only the netfs replica is
  // still intact.
  os::Node* writer = c.tiered().NodeByIndex(entry_a->replicas[0].node_index);
  os::Node* partner = c.tiered().NodeByIndex(entry_a->replicas[1].node_index);
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(partner, nullptr);
  writer->disk().WriteFile(entry_a->image_path, Bytes{0xba, 0xad});
  partner->disk().WriteFile(
      std::string(ckpt::TieredStore::kPartnerPrefix) + entry_a->image_path,
      Bytes{0xba, 0xad});

  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;

  ASSERT_EQ(restart.stats.restore_sources.size(), 2u);
  EXPECT_EQ(restart.stats.restore_sources[0], kNetfs);  // pod a fell back
  EXPECT_EQ(restart.stats.restore_sources[1], kLocal);  // pod b untouched

  obs::TraceQuery query(c.sim().tracer());
  bool saw_fallback_chain = false;
  for (const obs::TraceEvent* e :
       query.Select(obs::TraceQuery::Filter{}.Name("ckpt.store.resolve"))) {
    if (ArgOf(*e, "path") != entry_a->image_path) continue;
    if (ArgOf(*e, "source") != "netfs") continue;
    std::string chain = ArgOf(*e, "chain");
    EXPECT_NE(chain.find("local:crc"), std::string::npos) << chain;
    EXPECT_NE(chain.find(":crc"), std::string::npos) << chain;
    saw_fallback_chain = true;
  }
  EXPECT_TRUE(saw_fallback_chain);

  // Rebuild-on-restart replaced the rotten local copy with an intact one.
  Bytes rebuilt;
  ASSERT_TRUE(SysOk(writer->disk().ReadFile(entry_a->image_path, rebuilt)));
  EXPECT_EQ(rebuilt.size(), entry_a->size);
}

// -ENOSPC on a node disk evicts the oldest netfs-durable generation's
// files instead of failing the checkpoint, so a tight tier-1 budget
// degrades to "fewer cached generations", not "no checkpoints".
TEST(TieredStore, EnospcEvictsOldestGenerationInsteadOfFailing) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto first = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(first.stats.success) << first.stats.abort_reason;
  c.sim().RunFor(2 * kSecond);

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  auto manifest = store.ReadManifest(first.generation);
  ASSERT_TRUE(manifest.has_value());
  std::uint64_t image_bytes = manifest->front().size;
  ASSERT_GT(image_bytes, 0u);
  // Room for one generation (own image + guarded partner copy + meta)
  // plus one more image, but nowhere near two full generations.
  std::uint64_t budget = 3 * image_bytes + 8 * 1024;
  c.node(0).disk().set_capacity_bytes(budget);
  c.node(1).disk().set_capacity_bytes(budget);

  std::uint64_t newest = first.generation;
  for (int round = 0; round < 3; ++round) {
    auto result = c.RunGenerationCheckpoint(
        {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
    ASSERT_TRUE(result.stats.success)
        << "round " << round << ": " << result.stats.abort_reason;
    newest = result.generation;
    c.sim().RunFor(2 * kSecond);  // let the flush make this gen durable
  }

  // The first generation's tier-1 copies were evicted to make room...
  EXPECT_FALSE(c.node(0).disk().Exists(manifest->front().image_path));
  // ...but it stayed durable on the netfs, and the newest generation is
  // still fully restorable.
  EXPECT_TRUE(c.fs().Exists(manifest->front().image_path));
  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  EXPECT_EQ(restart.generation, newest);
}

// Retention: once a generation is fully netfs-durable and newer ones
// exist, its tier-1/2 copies are dropped (keep the last K locally).
TEST(TieredStore, RetentionDropsOldLocalCopiesOnceDurable) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  c.tiered().set_keep_local_generations(1);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto first = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(first.stats.success);
  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  auto manifest = store.ReadManifest(first.generation);
  ASSERT_TRUE(manifest.has_value());
  c.sim().RunFor(2 * kSecond);

  auto second = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(second.stats.success);
  c.sim().RunFor(2 * kSecond);

  // Generation 1 left the disk tiers but survives on the netfs.
  for (const ckpt::ManifestEntry& e : *manifest) {
    for (std::size_t n = 0; n < c.num_nodes(); ++n) {
      EXPECT_FALSE(c.node(n).disk().Exists(e.image_path));
      EXPECT_FALSE(c.node(n).disk().Exists(
          std::string(ckpt::TieredStore::kPartnerPrefix) + e.image_path));
    }
    EXPECT_TRUE(c.fs().Exists(e.image_path));
  }
  // The newest generation stays hot in tier 1.
  auto newest_manifest = store.ReadManifest(second.generation);
  ASSERT_TRUE(newest_manifest.has_value());
  for (const ckpt::ManifestEntry& e : *newest_manifest) {
    os::Node* writer = c.tiered().NodeByIndex(e.replicas[0].node_index);
    ASSERT_NE(writer, nullptr);
    EXPECT_TRUE(writer->disk().Exists(e.image_path));
  }
}


// Netfs-full handling. A cap on the shared netfs makes a netfs-only
// generation evict the oldest committed generation that is neither the
// one being written nor the newest committed one, and makes a tiered
// flush drop netfs copies that a node disk still holds.

std::uint64_t NetfsBytes(Cluster& c) { return c.fs().TotalBytes(); }

std::vector<obs::TraceEvent> Named(Cluster& c, const char* name) {
  obs::TraceQuery query(c.sim().tracer());
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent* e :
       query.Select(obs::TraceQuery::Filter{}.Name(name))) {
    out.push_back(*e);
  }
  return out;
}

// The netfs is exactly full when the next checkpoint starts. The first
// image write evicts generation 1 (the oldest, and neither the one being
// written nor the newest committed); the intent journal takes some of the
// room it freed, so the manifest commit then evicts generation 2. The
// current generation 4 and the newest one before it, 3, survive.
TEST(NetfsFull, NetfsOnlyEvictsOldestCommittedGeneration) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  for (std::uint64_t gen = 1; gen <= 3; ++gen) {
    auto r = c.RunGenerationCheckpoint(members);
    ASSERT_TRUE(r.stats.success) << r.stats.abort_reason;
    ASSERT_EQ(r.generation, gen);
  }
  c.fs().set_capacity_bytes(NetfsBytes(c));

  auto fourth = c.RunGenerationCheckpoint(members);
  ASSERT_TRUE(fourth.stats.success) << fourth.stats.abort_reason;
  EXPECT_EQ(fourth.generation, 4u);

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  EXPECT_EQ(store.Committed(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(1) + "/"), 0u);
  EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(2) + "/"), 0u);
  EXPECT_EQ(store.NewestIntact().value_or(0), 4u);
  EXPECT_LE(NetfsBytes(c), c.fs().capacity_bytes());

  // Both evictions are traced alike: the one the agent's image write
  // triggered and the one the manifest commit triggered.
  std::vector<std::pair<std::uint64_t, std::string>> trail;
  for (const char* name :
       {"ckpt.generation.discard", "ckpt.generation.evict"}) {
    for (const obs::TraceEvent& e : Named(c, name)) {
      trail.emplace_back(e.seq, e.name + " " + ArgOf(e, "gen"));
    }
  }
  std::sort(trail.begin(), trail.end());
  std::vector<std::string> names;
  for (const auto& [seq, text] : trail) names.push_back(text);
  const std::vector<std::string> want = {
      "ckpt.generation.discard 1", "ckpt.generation.evict 1",
      "ckpt.generation.discard 2", "ckpt.generation.evict 2"};
  EXPECT_EQ(names, want);
  EXPECT_TRUE(Named(c, "ckpt.store.evict").empty());
  obs::MetricsRegistry& metrics = c.sim().metrics();
  EXPECT_EQ(metrics.counter("ckpt.store.commits_total").value(), 0u);
}

// The images fit but the manifest does not: the commit itself evicts
// generation 1 and the generation still commits.
TEST(NetfsFull, NetfsOnlyManifestCommitEvicts) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  std::uint64_t before = 0;
  for (std::uint64_t gen = 1; gen <= 3; ++gen) {
    before = NetfsBytes(c);
    auto r = c.RunGenerationCheckpoint(members);
    ASSERT_TRUE(r.stats.success) << r.stats.abort_reason;
  }
  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  Bytes manifest;
  ASSERT_TRUE(
      SysOk(c.fs().ReadFile(store.Prefix(3) + "/MANIFEST", manifest)));
  // Room for everything generation 4 writes (its images, the journal
  // records of its op) except the manifest.
  const std::uint64_t generation_bytes = NetfsBytes(c) - before;
  c.fs().set_capacity_bytes(NetfsBytes(c) + generation_bytes -
                            manifest.size() - 1);

  auto fourth = c.RunGenerationCheckpoint(members);
  ASSERT_TRUE(fourth.stats.success) << fourth.stats.abort_reason;
  EXPECT_EQ(store.Committed(), (std::vector<std::uint64_t>{2, 3, 4}));
  auto evicts = Named(c, "ckpt.generation.evict");
  ASSERT_EQ(evicts.size(), 1u);
  EXPECT_EQ(ArgOf(evicts[0], "gen"), "1");
  auto discards = Named(c, "ckpt.generation.discard");
  ASSERT_EQ(discards.size(), 1u);
  EXPECT_EQ(ArgOf(discards[0], "gen"), "1");
  auto commits = Named(c, "ckpt.generation.commit");
  ASSERT_EQ(commits.size(), 4u);
  EXPECT_LT(evicts[0].seq, commits.back().seq);
}

// Nothing is evictable (the only committed generation is the newest):
// the checkpoint fails as "disk full", leaves zero orphan bytes, and
// generation 1 stays restorable.
TEST(NetfsFull, NetfsOnlyNothingEvictableFailsCleanly) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  auto first = c.RunGenerationCheckpoint(members);
  ASSERT_TRUE(first.stats.success) << first.stats.abort_reason;
  c.fs().set_capacity_bytes(NetfsBytes(c));

  auto second = c.RunGenerationCheckpoint(members);
  EXPECT_FALSE(second.stats.success);
  EXPECT_EQ(second.generation, 0u);
  EXPECT_EQ(second.latest_committed, 1u);
  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(2) + "/"), 0u);
  EXPECT_EQ(store.NewestIntact().value_or(0), 1u);

  std::size_t disk_full = 0;
  for (const obs::TraceEvent& e : Named(c, "agent.failed")) {
    if (ArgOf(e, "why") == "disk full") ++disk_full;
  }
  EXPECT_GE(disk_full, 1u);
  EXPECT_TRUE(Named(c, "ckpt.generation.evict").empty());
}

// Tiered: the manifest and the image flushes of generation 3 find the
// netfs full. The flush drops the netfs copies of generations 1 and 2
// (every image is still on the node disks), retries, and lands. Every
// generation stays restorable; only generation 3 is on the netfs.
TEST(NetfsFull, TieredFlushEvictsNetfsCopiesStillOnDisk) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  for (std::uint64_t gen = 1; gen <= 2; ++gen) {
    auto r = c.RunGenerationCheckpoint(members, TieredOptions());
    ASSERT_TRUE(r.stats.success) << r.stats.abort_reason;
    c.sim().RunFor(2 * kSecond);
  }
  ASSERT_EQ(c.tiered().PendingFlushCount(), 0u);
  c.fs().set_capacity_bytes(NetfsBytes(c));

  auto third = c.RunGenerationCheckpoint(members, TieredOptions());
  ASSERT_TRUE(third.stats.success) << third.stats.abort_reason;
  EXPECT_EQ(third.generation, 3u);
  c.sim().RunFor(5 * kSecond);

  ckpt::GenerationStore store(c.fs(), ckpt::GenerationStore::kDefaultRoot);
  store.set_tiered(&c.tiered());
  EXPECT_EQ(store.Committed(), (std::vector<std::uint64_t>{1, 2, 3}));
  for (std::uint64_t gen : {1, 2, 3}) {
    EXPECT_TRUE(store.Verify(gen)) << gen;
  }
  for (std::uint64_t gen : {1, 2, 3}) {
    std::vector<ckpt::ManifestEntry> manifest = *store.ReadManifest(gen);
    for (const ckpt::ManifestEntry& e : manifest) {
      EXPECT_EQ(c.fs().Exists(e.image_path), gen == 3) << e.image_path;
      EXPECT_TRUE(c.node(0).disk().Exists(e.image_path) ||
                  c.node(1).disk().Exists(e.image_path))
          << e.image_path;
    }
  }

  std::vector<std::string> evicted;
  for (const obs::TraceEvent& e : Named(c, "ckpt.store.evict")) {
    evicted.push_back(ArgOf(e, "gen") + "@" + ArgOf(e, "node") + ":" +
                      ArgOf(e, "reason"));
  }
  const std::vector<std::string> want = {
      "/ckpt/gens/gen_000001@netfs:enospc",
      "/ckpt/gens/gen_000002@netfs:enospc"};
  EXPECT_EQ(evicted, want);
  EXPECT_TRUE(Named(c, "ckpt.generation.evict").empty());
  obs::MetricsRegistry& metrics = c.sim().metrics();
  EXPECT_GT(metrics.counter("ckpt.store.flush_retries_total").value(), 0u);
}

// A full node disk never takes the last copies of the newest committed
// generation. With the netfs down nothing is flushed, so generation 1's
// disk copies are its only ones: generation 2 finds no room on either
// disk, fails as "no storage tier accepted image" with zero orphan bytes,
// and generation 1 stays restorable.
TEST(NetfsFull, TieredDiskFullKeepsNewestCommittedLastCopies) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  c.fs().set_available(false);
  auto first = c.RunGenerationCheckpoint(members, TieredOptions());
  ASSERT_TRUE(first.stats.success) << first.stats.abort_reason;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    c.node(n).disk().set_capacity_bytes(c.node(n).disk().TotalBytes());
  }

  auto second = c.RunGenerationCheckpoint(members, TieredOptions());
  EXPECT_FALSE(second.stats.success);
  EXPECT_EQ(second.latest_committed, 1u);
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/gens/gen_000002/"), 0u);
  std::size_t refused = 0;
  for (const obs::TraceEvent& e : Named(c, "agent.failed")) {
    if (ArgOf(e, "why") == "no storage tier accepted image") ++refused;
  }
  EXPECT_GE(refused, 1u);
  EXPECT_TRUE(Named(c, "ckpt.store.evict").empty());

  ckpt::GenerationStore store(c.tiered(), /*tiered=*/true);
  EXPECT_EQ(store.NewestIntact().value_or(0), 1u);
}

}  // namespace
}  // namespace cruz
