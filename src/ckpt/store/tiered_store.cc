#include "ckpt/store/tiered_store.h"

#include <algorithm>

#include "ckpt/generation.h"
#include "common/crc32.h"
#include "common/log.h"
#include "obs/trace.h"

namespace cruz::ckpt {

namespace {

bool IsManifest(const std::string& path) {
  static constexpr const char* kSuffix = "/MANIFEST";
  static constexpr std::size_t kLen = 9;
  return path.size() >= kLen &&
         path.compare(path.size() - kLen, kLen, kSuffix) == 0;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ".../gen_000007" -> "..." (the generation root).
std::string RootOf(const std::string& gen) {
  return gen.substr(0, gen.find("/gen_"));
}

}  // namespace

TieredStore::TieredStore(sim::Simulator& sim, os::NetworkFileSystem& netfs)
    : sim_(&sim), netfs_(netfs) {}

TieredStore::TieredStore(os::NetworkFileSystem& netfs)
    : sim_(nullptr), netfs_(netfs) {}

void TieredStore::RegisterNode(os::Node* node) { ring_.push_back(node); }

os::Node* TieredStore::NodeByIndex(std::uint32_t node_index) const {
  for (os::Node* n : ring_) {
    if (n->index() == node_index) return n;
  }
  return nullptr;
}

os::Node* TieredStore::PartnerOf(std::uint32_t node_index) const {
  std::size_t slot = ring_.size();
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i]->index() == node_index) {
      slot = i;
      break;
    }
  }
  if (slot == ring_.size() || ring_.size() < 2) return nullptr;
  // Next live slot after ours; the ring is fixed at registration order,
  // so the assignment is deterministic and every node can recompute it.
  for (std::size_t step = 1; step < ring_.size(); ++step) {
    os::Node* candidate = ring_[(slot + step) % ring_.size()];
    if (!candidate->failed()) return candidate;
  }
  return nullptr;
}

bool TieredStore::Unreachable(const os::Node* node) const {
  return injector_ != nullptr && node != nullptr &&
         injector_->PartnerUnreachable(node->name());
}

void TieredStore::NotifyNoSpace(const std::string& store,
                                const std::string& path) {
  sim_->metrics().counter("ckpt.store.enospc_total").Add(1);
  if (injector_ != nullptr) injector_->OnNoSpace(store, path);
}

std::string TieredStore::GenPrefixOf(const std::string& path) {
  std::size_t at = path.find("/gen_");
  if (at == std::string::npos) return "";
  std::size_t end = path.find('/', at + 1);
  if (end == std::string::npos) return "";
  return path.substr(0, end);
}

SysResult TieredStore::WriteMakingRoom(os::Node* node, const std::string& path,
                                       const cruz::Bytes& bytes, bool tiered,
                                       bool guarded) {
  os::MemFileStore& store =
      node != nullptr ? static_cast<os::MemFileStore&>(node->disk()) : netfs_;
  const std::string file = guarded ? kPartnerPrefix + path : path;
  SysResult r = store.WriteFile(file, bytes);
  if (SysErrno(r) != CRUZ_ENOSPC) return r;
  if (tiered) NotifyNoSpace(store.name(), path);
  while (SysErrno(r) == CRUZ_ENOSPC && EvictForSpace(node, path, tiered)) {
    r = store.WriteFile(file, bytes);
  }
  return r;
}

TieredStore::Commit TieredStore::CommitImage(os::Node& writer,
                                             const std::string& path,
                                             cruz::Bytes image, bool tiered) {
  const std::uint64_t bytes = image.size();
  Commit commit;
  commit.duration = writer.DiskWriteDuration(bytes);
  if (!tiered) {
    // Zero local tiers: the shared netfs is the only copy (Cruz §2).
    SysResult w = WriteMakingRoom(nullptr, path, image, false);
    if (!SysOk(w)) {
      commit.failure =
          SysErrno(w) == CRUZ_ENOSPC ? "disk full" : "image write refused";
    }
    return commit;
  }

  const std::uint32_t crc = Crc32(image);
  const std::string gen = GenPrefixOf(path);
  std::vector<Replica>& out = commit.replicas;

  // Tier 1: the writer's own disk.
  SysResult local = WriteMakingRoom(&writer, path, image, true);
  if (SysOk(local)) {
    out.push_back(Replica{Tier::kLocal, writer.index(), bytes, crc});
  }

  // Tier 2: the ring partner, written in parallel with tier 1.
  DurationNs partner_cost = 0;
  os::Node* partner = PartnerOf(writer.index());
  if (partner != nullptr && !Unreachable(&writer) && !Unreachable(partner)) {
    if (SysOk(WriteMakingRoom(partner, path, image, true, /*guarded=*/true))) {
      out.push_back(Replica{Tier::kPartner, partner->index(), bytes, crc});
      partner_cost = writer.PartnerWriteDuration(bytes);
    }
  } else if (partner != nullptr) {
    sim_->metrics().counter("ckpt.store.partner_skips_total").Add(1);
  }

  if (out.empty()) {
    // No tier accepted the image: the checkpoint on this member fails.
    commit.failure = "no storage tier accepted image";
    return commit;
  }

  index_[path] = ImageMeta{bytes, crc, writer.index(), false};
  if (!gen.empty()) gen_files_[gen].insert(path);
  commit.duration = std::max(commit.duration, partner_cost);

  sim_->metrics().counter("ckpt.store.commits_total").Add(1);
  sim_->tracer().Instant(
      "ckpt", "ckpt.store.commit",
      obs::TraceAttrs{}
          .Arg("path", path)
          .Arg("bytes", bytes)
          .Arg("replicas", static_cast<std::uint64_t>(out.size()))
          .Arg("partner",
               out.size() > 1 ? NodeByIndex(out[1].node_index)->name() : ""));

  // Tier 3 fills in the background once the foreground writes land.
  ScheduleFlush(path, writer.index(),
                commit.duration + writer.NetfsWriteDuration(bytes));
  return commit;
}

SysResult TieredStore::PutMeta(const std::string& path, cruz::Bytes bytes,
                               bool tiered) {
  if (!tiered) return WriteMakingRoom(nullptr, path, bytes, false);
  const std::string gen = GenPrefixOf(path);
  const auto size = static_cast<SysResult>(bytes.size());
  index_[path] = ImageMeta{bytes.size(), Crc32(bytes), 0, false};
  if (!gen.empty()) gen_files_[gen].insert(path);
  // Metadata is tiny and must survive any single failure domain: every
  // live node keeps a copy, and the netfs copy lands when it can.
  for (os::Node* n : ring_) {
    if (!n->failed()) WriteMakingRoom(n, path, bytes, true);
  }
  SysResult r = netfs_.WriteFile(path, std::move(bytes));
  if (SysOk(r)) {
    index_[path].flushed = true;
  } else {
    if (SysErrno(r) == CRUZ_ENOSPC) NotifyNoSpace("netfs", path);
    ScheduleFlush(path, 0, flush_retry_);
  }
  return size;
}

SysResult TieredStore::ReadMeta(const std::string& path, cruz::Bytes& out,
                                bool tiered) const {
  SysResult r = netfs_.ReadFile(path, out);
  if (SysOk(r) || !tiered) return r;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    r = n->disk().ReadFile(path, out);
    if (SysOk(r)) return r;
  }
  return SysErr(CRUZ_ENOENT);
}

std::vector<std::string> TieredStore::ListAll(const std::string& prefix,
                                              bool tiered) const {
  if (!tiered) return netfs_.List(prefix);
  std::set<std::string> paths;
  for (const std::string& p : netfs_.List(prefix)) paths.insert(p);
  const std::string guarded = std::string(kPartnerPrefix) + prefix;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    for (const std::string& p : n->disk().List(prefix)) paths.insert(p);
    for (const std::string& p : n->disk().List(guarded)) {
      paths.insert(p.substr(std::string(kPartnerPrefix).size()));
    }
  }
  return std::vector<std::string>(paths.begin(), paths.end());
}

SysResult TieredStore::Resolve(os::Node* reader, const std::string& path,
                               cruz::Bytes& out, ResolveResult* rr,
                               bool trace) {
  ResolveResult scratch;
  ResolveResult& res = rr != nullptr ? *rr : scratch;
  res = ResolveResult{};
  auto meta_it = index_.find(path);
  auto valid = [&](const cruz::Bytes& bytes) {
    if (meta_it == index_.end()) return true;  // no commit-time record
    return bytes.size() == meta_it->second.size &&
           Crc32(bytes) == meta_it->second.crc32;
  };
  std::string chain;
  auto note = [&](const std::string& s) {
    if (!chain.empty()) chain += ",";
    chain += s;
    ++res.fallbacks;
  };
  const std::string guarded = std::string(kPartnerPrefix) + path;
  auto try_store = [&](const os::MemFileStore& store, const std::string& p,
                       const std::string& label) {
    cruz::Bytes bytes;
    if (!SysOk(store.ReadFile(p, bytes))) return false;
    if (!valid(bytes)) {
      note(label + ":crc");
      return false;
    }
    out = std::move(bytes);
    return true;
  };

  bool found = false;
  // Tier 1: the reader's own disk — its copy, or one it guards.
  if (reader != nullptr) {
    if (try_store(reader->disk(), path, "local") ||
        try_store(reader->disk(), guarded, "local")) {
      found = true;
      res.source = Tier::kLocal;
      res.node_index = reader->index();
    } else {
      note("local:miss");
    }
  }
  // Tier 2: any other live node, in ring order (the writer's copy if the
  // pod moved, or the partner-guarded copy if the writer died).
  if (!found) {
    if (reader != nullptr && Unreachable(reader)) {
      note("partner:unreachable");
    } else {
      for (os::Node* n : ring_) {
        if (n == reader || n->failed()) continue;
        if (Unreachable(n)) {
          note("partner(" + n->name() + "):unreachable");
          continue;
        }
        std::string label = "partner(" + n->name() + ")";
        if (try_store(n->disk(), path, label) ||
            try_store(n->disk(), guarded, label)) {
          found = true;
          res.source = Tier::kPartner;
          res.node_index = n->index();
          break;
        }
      }
      if (!found) note("partner:miss");
    }
  }
  // Tier 3: the shared netfs, last resort.
  if (!found) {
    cruz::Bytes bytes;
    SysResult r = netfs_.ReadFile(path, bytes);
    if (SysOk(r) && valid(bytes)) {
      out = std::move(bytes);
      found = true;
      res.source = Tier::kNetfs;
      res.node_index = 0;
    } else if (SysOk(r)) {
      note("netfs:crc");
    } else {
      note(SysErrno(r) == CRUZ_EIO ? "netfs:unavailable" : "netfs:miss");
    }
  }

  if (!found) {
    if (trace) {
      sim_->metrics().counter("ckpt.store.resolve_failures_total").Add(1);
      sim_->tracer().Instant(
          "ckpt", "ckpt.store.resolve_failed",
          obs::TraceAttrs{}.Arg("path", path).Arg("chain", chain));
    }
    return SysErr(CRUZ_ENOENT);
  }

  if (!chain.empty()) chain += ",";
  chain += std::string(TierName(res.source)) + ":ok";
  res.chain = chain;

  // Rebuild-on-restart: repopulate the reader's tier-1 cache so the next
  // restore (and the next flush) is local again.
  if (reader != nullptr && res.source != Tier::kLocal) {
    if (SysOk(WriteMakingRoom(reader, path, out, true))) {
      res.rebuilt_local = true;
      sim_->metrics().counter("ckpt.store.rebuilds_total").Add(1);
      sim_->tracer().Instant("ckpt", "ckpt.store.rebuild",
                            obs::TraceAttrs{}
                                .Arg("path", path)
                                .Arg("node", reader->name())
                                .Arg("from", TierName(res.source)));
    }
  }

  if (trace) {
    sim_->metrics()
        .counter(std::string("ckpt.store.restore_source_") +
                 TierName(res.source))
        .Add(1);
    sim_->tracer().Instant(
        "ckpt", "ckpt.store.resolve",
        obs::TraceAttrs{}
            .Arg("path", path)
            .Arg("source", TierName(res.source))
            .Arg("chain", chain)
            .Arg("fallbacks", static_cast<std::uint64_t>(res.fallbacks)));
  }
  return static_cast<SysResult>(out.size());
}

bool TieredStore::HasAnyReplica(const std::string& path) const {
  const std::string guarded = std::string(kPartnerPrefix) + path;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    if (n->disk().Exists(path) || n->disk().Exists(guarded)) return true;
  }
  return netfs_.Exists(path);
}

bool TieredStore::FindAnyCopy(const std::string& path,
                              cruz::Bytes& out) const {
  auto meta_it = index_.find(path);
  const std::string guarded = std::string(kPartnerPrefix) + path;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    for (const std::string& p : {path, guarded}) {
      cruz::Bytes bytes;
      if (!SysOk(n->disk().ReadFile(p, bytes))) continue;
      // Never propagate a copy that disagrees with the commit record.
      if (meta_it != index_.end() &&
          (bytes.size() != meta_it->second.size ||
           Crc32(bytes) != meta_it->second.crc32)) {
        continue;
      }
      out = std::move(bytes);
      return true;
    }
  }
  return false;
}

void TieredStore::ScheduleFlush(const std::string& path, std::uint32_t writer,
                                DurationNs after) {
  pending_flush_[path] = FlushState{writer, flush_retry_, 0};
  sim_->Schedule(after, [this, path] { AttemptFlush(path); });
}

void TieredStore::AttemptFlush(const std::string& path) {
  auto it = pending_flush_.find(path);
  if (it == pending_flush_.end()) return;  // cancelled (abort/discard GC)
  ++flush_attempts_total_;
  ++it->second.attempts;

  cruz::Bytes bytes;
  if (!FindAnyCopy(path, bytes)) {
    // Every disk copy is gone (node loss + partner loss before the flush
    // landed). Nothing left to make durable.
    sim_->metrics().counter("ckpt.store.flush_abandoned_total").Add(1);
    sim_->tracer().Instant("ckpt", "ckpt.store.flush_abandoned",
                          obs::TraceAttrs{}.Arg("path", path).Arg(
                              "reason", "no intact source copy"));
    pending_flush_.erase(it);
    return;
  }

  SysResult r = netfs_.WriteFile(path, std::move(bytes));
  if (SysOk(r)) {
    auto meta_it = index_.find(path);
    if (meta_it != index_.end()) meta_it->second.flushed = true;
    sim_->metrics().counter("ckpt.store.flushes_total").Add(1);
    sim_->tracer().Instant(
        "ckpt", "ckpt.store.flush",
        obs::TraceAttrs{}.Arg("path", path).Arg(
            "attempts", static_cast<std::uint64_t>(it->second.attempts)));
    pending_flush_.erase(it);
    EnforceRetention();
    return;
  }

  if (SysErrno(r) == CRUZ_ENOSPC) {
    NotifyNoSpace("netfs", path);
    EvictForSpace(nullptr, path, true);
  }

  if (it->second.attempts >= max_flush_attempts_) {
    sim_->metrics().counter("ckpt.store.flush_abandoned_total").Add(1);
    sim_->tracer().Instant(
        "ckpt", "ckpt.store.flush_abandoned",
        obs::TraceAttrs{}.Arg("path", path).Arg("reason", "max attempts"));
    pending_flush_.erase(it);
    return;
  }

  sim_->metrics().counter("ckpt.store.flush_retries_total").Add(1);
  sim_->tracer().Instant(
      "ckpt", "ckpt.store.flush_retry",
      obs::TraceAttrs{}
          .Arg("path", path)
          .Arg("attempts", static_cast<std::uint64_t>(it->second.attempts))
          .Arg("error", ErrnoName(SysErrno(r))));
  DurationNs backoff = it->second.backoff;
  it->second.backoff = std::min(backoff * 2, flush_retry_max_);
  sim_->Schedule(backoff, [this, path] { AttemptFlush(path); });
}

bool TieredStore::EvictForSpace(os::Node* full, const std::string& path,
                                bool tiered) {
  const std::string keep = GenPrefixOf(path);
  // Candidate generations, oldest first, and each root's newest committed
  // one. Tiered: what this store committed. Zero local tiers keep no
  // state here: the committed generations on the netfs under `path`'s root.
  std::vector<std::string> gens;
  std::map<std::string, std::string> newest;
  if (tiered) {
    for (const auto& [gen, files] : gen_files_) {
      gens.push_back(gen);
      for (const std::string& f : files) {
        if (IsManifest(f)) newest[RootOf(gen)] = gen;
      }
    }
  } else {
    if (keep.empty()) return false;
    GenerationStore generations(*this, false, RootOf(keep));
    for (std::uint64_t g : generations.Committed()) {
      gens.push_back(generations.Prefix(g));
    }
    if (!gens.empty()) newest[RootOf(keep)] = gens.back();
  }

  for (bool last_copies : {false, true}) {
    // Zero local tiers hold no copy elsewhere; a tiered netfs write is a
    // background flush and retries later instead of taking last copies.
    if (last_copies ? tiered && full == nullptr : !tiered) continue;
    for (const std::string& gen : gens) {
      if (gen == keep) continue;
      if (last_copies && newest[RootOf(gen)] == gen) continue;
      std::size_t removed = 0;
      if (!tiered) {
        removed = DiscardPrefix(gen, false);
      } else {
        for (const std::string& f : gen_files_.at(gen)) {
          if (IsManifest(f)) continue;
          if (full != nullptr) {
            auto m = index_.find(f);
            bool flushed = m != index_.end() && m->second.flushed;
            if (!last_copies && !flushed) continue;
            if (SysOk(full->disk().Remove(f))) ++removed;
            if (SysOk(full->disk().Remove(kPartnerPrefix + f))) ++removed;
          } else {
            cruz::Bytes copy;
            if (!netfs_.Exists(f) || !FindAnyCopy(f, copy)) continue;
            if (SysOk(netfs_.Remove(f))) {
              ++removed;
              auto m = index_.find(f);
              if (m != index_.end()) m->second.flushed = false;
            }
          }
        }
      }
      if (removed == 0) continue;
      if (tiered) {
        sim_->metrics().counter("ckpt.store.evictions_total").Add(1);
        sim_->tracer().Instant(
            "ckpt", "ckpt.store.evict",
            obs::TraceAttrs{}
                .Arg("gen", gen)
                .Arg("node", full != nullptr ? full->name() : "netfs")
                .Arg("files", static_cast<std::uint64_t>(removed))
                .Arg("reason", "enospc"));
      } else {
        std::uint64_t number = std::stoull(gen.substr(gen.rfind('_') + 1));
        CRUZ_WARN("ckpt") << "generation " << number << ": evicted ("
                          << removed << " file(s)) to reclaim space";
        if (sim_ != nullptr) {
          sim_->tracer().Instant("ckpt", "ckpt.generation.discard",
                                 obs::TraceAttrs{}.Arg("gen", number));
          sim_->tracer().Instant(
              "ckpt", "ckpt.generation.evict",
              obs::TraceAttrs{}.Arg("gen", number).Arg("reason", "enospc"));
        }
      }
      return true;
    }
  }
  return false;
}

void TieredStore::EnforceRetention() {
  if (keep_local_ == 0 || gen_files_.size() <= keep_local_) return;
  std::size_t evictable = gen_files_.size() - keep_local_;
  for (const auto& [gen, files] : gen_files_) {
    if (evictable == 0) break;
    --evictable;
    bool durable = true;
    for (const std::string& f : files) {
      if (IsManifest(f)) continue;
      auto m = index_.find(f);
      if (m == index_.end() || !m->second.flushed) {
        durable = false;
        break;
      }
    }
    if (!durable) continue;  // keep cache copies until the flush lands
    std::size_t removed = 0;
    for (const std::string& f : files) {
      if (IsManifest(f)) continue;
      for (os::Node* n : ring_) {
        if (SysOk(n->disk().Remove(f))) ++removed;
        if (SysOk(n->disk().Remove(std::string(kPartnerPrefix) + f))) {
          ++removed;
        }
      }
    }
    if (removed > 0) {
      sim_->metrics().counter("ckpt.store.evictions_total").Add(1);
      sim_->tracer().Instant(
          "ckpt", "ckpt.store.evict",
          obs::TraceAttrs{}
              .Arg("gen", gen)
              .Arg("files", static_cast<std::uint64_t>(removed))
              .Arg("reason", "retention"));
    }
  }
}

std::size_t TieredStore::RemoveEverywhere(const std::string& path) {
  std::size_t n = 0;
  const std::string guarded = std::string(kPartnerPrefix) + path;
  for (os::Node* node : ring_) {
    if (SysOk(node->disk().Remove(path))) ++n;
    if (SysOk(node->disk().Remove(guarded))) ++n;
  }
  SysResult r = netfs_.Remove(path);
  if (SysOk(r)) {
    ++n;
  } else if (SysErrno(r) == CRUZ_EIO) {
    auto m = index_.find(path);
    if (m != index_.end() && m->second.flushed) {
      tombstones_.insert(path);
      ScheduleReaper();
    }
  }
  pending_flush_.erase(path);
  index_.erase(path);
  std::string gen = GenPrefixOf(path);
  auto g = gen_files_.find(gen);
  if (g != gen_files_.end()) {
    g->second.erase(path);
    if (g->second.empty()) gen_files_.erase(g);
  }
  return n;
}

std::size_t TieredStore::DiscardPrefix(const std::string& prefix, bool tiered) {
  std::size_t netfs_files = 0;
  for (const std::string& p : netfs_.List(prefix + "/")) {
    if (SysOk(netfs_.Remove(p))) ++netfs_files;
  }
  if (!tiered) return netfs_files;
  std::size_t n = 0;
  const std::string guarded = std::string(kPartnerPrefix) + prefix;
  for (os::Node* node : ring_) {
    for (const std::string& p : node->disk().List(prefix)) {
      if (SysOk(node->disk().Remove(p))) ++n;
    }
    for (const std::string& p : node->disk().List(guarded)) {
      if (SysOk(node->disk().Remove(p))) ++n;
    }
  }
  // Netfs copies: whatever is visible now, plus everything the index
  // says was (or may have been) flushed — an outage must not leave
  // half-flushed orphans behind, so unremovable paths are tombstoned.
  std::set<std::string> candidates;
  for (const std::string& p : netfs_.List(prefix)) candidates.insert(p);
  for (auto it = gen_files_.begin(); it != gen_files_.end();) {
    if (!HasPrefix(it->first, prefix)) {
      ++it;
      continue;
    }
    for (const std::string& f : it->second) {
      candidates.insert(f);
      pending_flush_.erase(f);
    }
    it = gen_files_.erase(it);
  }
  for (const std::string& p : candidates) {
    SysResult r = netfs_.Remove(p);
    if (SysOk(r)) {
      ++n;
    } else if (SysErrno(r) == CRUZ_EIO) {
      auto m = index_.find(p);
      if (m == index_.end() || m->second.flushed) {
        tombstones_.insert(p);
        ScheduleReaper();
      }
    }
    index_.erase(p);
  }
  for (auto it = pending_flush_.begin(); it != pending_flush_.end();) {
    if (HasPrefix(it->first, prefix)) {
      it = pending_flush_.erase(it);
    } else {
      ++it;
    }
  }
  if (n > 0) {
    sim_->tracer().Instant(
        "ckpt", "ckpt.store.discard",
        obs::TraceAttrs{}.Arg("prefix", prefix).Arg(
            "files", static_cast<std::uint64_t>(n)));
  }
  return netfs_files + n;
}

void TieredStore::ScheduleReaper() {
  if (reaper_scheduled_) return;
  reaper_scheduled_ = true;
  sim_->Schedule(flush_retry_max_, [this] { ReapTombstones(); });
}

void TieredStore::ReapTombstones() {
  reaper_scheduled_ = false;
  for (auto it = tombstones_.begin(); it != tombstones_.end();) {
    SysResult r = netfs_.Remove(*it);
    if (SysOk(r) || SysErrno(r) == CRUZ_ENOENT) {
      sim_->tracer().Instant("ckpt", "ckpt.store.reap",
                            obs::TraceAttrs{}.Arg("path", *it));
      it = tombstones_.erase(it);
    } else {
      ++it;
    }
  }
  if (!tombstones_.empty()) ScheduleReaper();
}

bool TieredStore::FlushedToNetfs(const std::string& path) const {
  auto it = index_.find(path);
  return it != index_.end() && it->second.flushed;
}

std::uint64_t TieredStore::BytesUnderPrefix(const std::string& prefix) const {
  std::uint64_t total = 0;
  const std::string guarded = std::string(kPartnerPrefix) + prefix;
  for (os::Node* n : ring_) {
    for (const std::string& p : n->disk().List(prefix)) {
      SysResult s = n->disk().FileSize(p);
      if (SysOk(s)) total += static_cast<std::uint64_t>(s);
    }
    for (const std::string& p : n->disk().List(guarded)) {
      SysResult s = n->disk().FileSize(p);
      if (SysOk(s)) total += static_cast<std::uint64_t>(s);
    }
  }
  for (const std::string& p : netfs_.List(prefix)) {
    SysResult s = netfs_.FileSize(p);
    if (SysOk(s)) total += static_cast<std::uint64_t>(s);
  }
  return total;
}

SysResult TieredReadView::ReadFile(const std::string& path,
                                   cruz::Bytes& out) const {
  if (!tiered_) return store_.netfs_.ReadFile(path, out);
  auto it = cache_.find(path);
  if (it != cache_.end()) {
    out = it->second;
    return static_cast<SysResult>(out.size());
  }
  TieredStore::ResolveResult rr;
  SysResult r = store_.Resolve(reader_, path, out, &rr, trace_);
  if (!SysOk(r)) return r;
  if (!have_head_) {
    have_head_ = true;
    head_result_ = rr;
  }
  cache_[path] = out;
  return r;
}

SysResult TieredReadView::FileSize(const std::string& path) const {
  if (!tiered_) return store_.netfs_.FileSize(path);
  cruz::Bytes bytes;
  SysResult r = ReadFile(path, bytes);
  return SysOk(r) ? static_cast<SysResult>(bytes.size()) : r;
}

}  // namespace cruz::ckpt
