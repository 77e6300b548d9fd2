// Checkpoint generations.
//
// Each coordinated checkpoint writes its images under a fresh
// per-generation directory and the generation becomes visible only when a
// manifest is committed after every agent reported <done> — so storage
// never exposes a half-written checkpoint as restorable. The manifest
// records, per member pod, the image path plus its size and CRC-32, which
// lets restart verify every image *before* touching any pod and fall back
// to the newest older generation that is still fully intact (e.g. after
// silent media corruption of the latest images). Aborted generations are
// discarded wholesale by deleting everything under their directory.
//
// A GenerationStore owns naming, the manifest format and verification;
// every byte goes through a TieredStore on the op's tier set (zero local
// tiers = the shared netfs alone, as in Cruz). Running out of space is the
// TieredStore's one eviction policy, on image and manifest writes alike.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "obs/trace.h"
#include "os/netfs.h"
#include "os/types.h"

namespace cruz::ckpt {

class TieredStore;

struct ManifestEntry {
  os::PodId pod = os::kNoPod;
  std::string image_path;
  std::uint64_t size = 0;     // image bytes at commit time
  std::uint32_t crc32 = 0;    // CRC-32 of the whole image file
  // Where the image lived at commit time (tiered mode: local + partner;
  // the netfs replica appears later via the background flush and is
  // always consulted as the last resort). Empty with zero local tiers.
  std::vector<Replica> replicas;
};

class GenerationStore {
 public:
  static constexpr const char* kDefaultRoot = "/ckpt/gens";

  // Generations under `root` in `store`; `tiered` picks its tier set.
  GenerationStore(TieredStore& store, bool tiered,
                  std::string root = kDefaultRoot);
  // Generations on `fs` alone: a store with zero local tiers.
  explicit GenerationStore(os::NetworkFileSystem& fs,
                           std::string root = kDefaultRoot);
  ~GenerationStore();

  // Allocates the next generation number. Monotonic across coordinator
  // incarnations: the counter is persisted in a SEQ file next to the
  // generations.
  std::uint64_t Allocate();

  // Directory prefix for a generation's images, e.g. "/ckpt/gens/gen_000007".
  std::string Prefix(std::uint64_t gen) const;

  // Atomically publishes the generation: the manifest write is the commit
  // point (a generation without a manifest does not exist for restart).
  // A netfs-only manifest write that still finds no room after eviction
  // leaves the generation uncommitted.
  void Commit(std::uint64_t gen, const std::vector<ManifestEntry>& entries);

  // Abort path: deletes every file under the generation's directory on
  // every tier of the set (partial images, manifest if any, pending
  // flushes). Returns the number removed.
  std::size_t Discard(std::uint64_t gen);

  // Committed generations (those with a readable, CRC-intact manifest),
  // ascending.
  std::vector<std::uint64_t> Committed() const;
  std::optional<std::uint64_t> LatestCommitted() const;

  std::optional<std::vector<ManifestEntry>> ReadManifest(
      std::uint64_t gen) const;

  // Deep verification: manifest intact and every member image present
  // with the recorded size and CRC-32, and deserializable (including its
  // incremental parent chain). This is what restart runs before choosing
  // a generation.
  bool Verify(std::uint64_t gen) const;

  // Newest committed generation that passes Verify, scanning backwards.
  std::optional<std::uint64_t> NewestIntact() const;

  // Mirror commit/discard decisions onto a tracer timeline (nullptr
  // disables), so invariant checks can pin the commit point against the
  // protocol spans around it.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Switches to `tiered`'s local tiers (manifests and the SEQ counter
  // replicate across the node disks, Verify accepts any intact replica of
  // each image, Discard reaps every tier); nullptr = zero local tiers.
  void set_tiered(TieredStore* tiered);

 private:
  std::string SeqPath() const { return root_ + "/SEQ"; }
  std::string ManifestPath(std::uint64_t gen) const {
    return Prefix(gen) + "/MANIFEST";
  }

  std::unique_ptr<TieredStore> own_store_;  // the netfs-only form's
  TieredStore* store_;
  bool tiered_;
  std::string root_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace cruz::ckpt
