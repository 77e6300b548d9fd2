// Sparse paged process memory with copy-on-write snapshots.
//
// A process address space is a map from page index to 4 KiB pages,
// allocated on first write. The checkpoint engine serializes only the
// allocated (non-zero) pages — "most of the state consists of the non-zero
// contents of the virtual memory of all processes running in the pod"
// (paper §6) — so checkpoint size tracks what the application touched.
//
// Pages are reference-counted so a checkpoint can take a MemorySnapshot —
// a frozen view sharing every page — in O(page table) time while the pod
// is stopped (paper §5.2, forked checkpointing). After the pod resumes,
// the first write to a shared page copies it privately (a "COW fault"),
// so the snapshot stays byte-stable while the background write-out
// serializes it, and the running pod pays only for the pages it touches.
//
// Post-copy live migration adds a third page state: *missing*. A missing
// page has known-but-not-yet-transferred content living on the migration
// source; any touch raises a PageFault so the OS can suspend the faulting
// process until FillPage() delivers the bytes. Missing is distinct from
// absent: absent (never-written) pages still read as zeros.
//
// Accesses go through a small software TLB: a direct-mapped cache from
// page index to the page's slot in the page map, so a program touching
// the same few pages pays one map walk per page, not one per access. A
// TLB entry implies the page is resident, hence not missing (MarkMissing
// refuses resident pages), so a hit skips the missing-page check. A write
// hit still checks whether the page is shared and copies it if so, and it
// marks the page dirty unless the entry says the bit is already set.
// Every erase from the page map flushes the TLB; ClearDirty drops the
// entries' dirty flags; a copied or moved Memory starts with an empty TLB.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace cruz::os {

constexpr std::size_t kPageSize = 4096;
constexpr std::uint64_t kPageShift = 12;

// Thrown by Memory on any access to a missing (demand-paged) page. The OS
// catches it in RunStep, rewinds the thread, and parks the whole process
// until the page server delivers the content.
struct PageFault {
  std::uint64_t page_index = 0;
};

// Immutable view of a memory image at snapshot time. Pages are shared
// with the live Memory until the pod writes to them; the snapshot keeps
// its own references, so it is unaffected by later writes (which copy)
// and by page drops in the live address space.
class MemorySnapshot {
 public:
  using Page = std::vector<std::uint8_t>;
  using PageMap = std::map<std::uint64_t, std::shared_ptr<const Page>>;

  MemorySnapshot() = default;
  explicit MemorySnapshot(PageMap pages) : pages_(std::move(pages)) {}

  const PageMap& pages() const { return pages_; }
  std::size_t PageCount() const { return pages_.size(); }
  std::uint64_t ResidentBytes() const { return pages_.size() * kPageSize; }

  // Returns nullptr for pages not present at snapshot time.
  const Page* Find(std::uint64_t page_index) const {
    auto it = pages_.find(page_index);
    return it == pages_.end() ? nullptr : it->second.get();
  }

 private:
  PageMap pages_;
};

class Memory {
 public:
  using Page = std::vector<std::uint8_t>;  // always kPageSize long

  // --- raw access -----------------------------------------------------------
  void WriteBytes(std::uint64_t addr, cruz::ByteSpan data);
  void ReadBytes(std::uint64_t addr, std::uint8_t* out, std::size_t n) const;
  cruz::Bytes ReadBytes(std::uint64_t addr, std::size_t n) const;

  // --- typed helpers (little-endian) -------------------------------------------
  // A value inside one page is one TLB probe; one that straddles a page
  // boundary goes through the byte path.
  void WriteU64(std::uint64_t addr, std::uint64_t v) {
    std::size_t offset = static_cast<std::size_t>(addr & (kPageSize - 1));
    if (offset > kPageSize - 8) {
      WriteU64Straddling(addr, v);
      return;
    }
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    std::memcpy(PageForWrite(addr >> kPageShift).data() + offset, &v, 8);
  }
  std::uint64_t ReadU64(std::uint64_t addr) const {
    std::size_t offset = static_cast<std::size_t>(addr & (kPageSize - 1));
    if (offset > kPageSize - 8) return ReadU64Straddling(addr);
    const Page* page = PageForRead(addr >> kPageShift);
    if (page == nullptr) return 0;
    std::uint64_t v;
    std::memcpy(&v, page->data() + offset, 8);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  void WriteF64(std::uint64_t addr, double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    WriteU64(addr, bits);
  }
  double ReadF64(std::uint64_t addr) const {
    std::uint64_t bits = ReadU64(addr);
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  // --- pages -------------------------------------------------------------------
  const std::map<std::uint64_t, std::shared_ptr<Page>>& pages() const {
    return pages_;
  }
  std::size_t PageCount() const { return pages_.size(); }
  std::size_t ResidentBytes() const { return pages_.size() * kPageSize; }
  void InstallPage(std::uint64_t page_index, cruz::ByteSpan content);
  void Clear() {
    pages_.clear();
    missing_.clear();
    tlb_.Flush();
  }

  // Drops pages that are entirely zero (used to keep checkpoints small).
  void DropZeroPages();

  // --- demand paging (post-copy migration) ---------------------------------
  // Declares a page as known-but-not-resident: its content exists on the
  // migration source and any touch before FillPage() raises a PageFault.
  void MarkMissing(std::uint64_t page_index);
  bool IsMissing(std::uint64_t page_index) const {
    return missing_.count(page_index) != 0;
  }
  const std::set<std::uint64_t>& missing_pages() const { return missing_; }
  bool HasMissingPages() const { return !missing_.empty(); }
  // Installs `content` iff the page is still missing and returns true.
  // A fill for a page that is already resident is dropped (false): this
  // is what makes duplicate page responses — retransmits, background push
  // racing a demand fetch — idempotent instead of state-corrupting.
  bool FillPage(std::uint64_t page_index, cruz::ByteSpan content);

  // --- copy-on-write snapshots (forked checkpointing, paper §5.2) ----------
  // Freezes the current image by sharing every page with the returned
  // snapshot. O(page table), no page copies. Writes after the snapshot
  // copy the touched page first (counted in cow_faults), so the snapshot
  // is byte-stable forever.
  MemorySnapshot Snapshot() const;

  // Pages copied because a write hit a page shared with a snapshot.
  std::uint64_t cow_faults() const { return cow_faults_; }
  void ResetCowFaults() { cow_faults_ = 0; }

  // --- dirty tracking (incremental checkpointing, paper §5.2) -------------
  // Every write marks its pages dirty; an incremental checkpoint saves
  // only pages dirtied since the previous checkpoint cleared the set.
  // Internally a word-indexed bitmap, set at most once per page between
  // clears: a write that hits a TLB entry whose dirty flag is set skips
  // it. The std::set view is materialized lazily on demand so callers
  // keep the exact ordered-set semantics they always had.
  const std::set<std::uint64_t>& dirty_pages() const;
  void ClearDirty() {
    dirty_words_.clear();
    dirty_cache_.clear();
    dirty_cache_valid_ = true;
    tlb_.ForgetDirty();
  }
  bool IsDirty(std::uint64_t page_index) const {
    auto it = dirty_words_.find(page_index >> 6);
    return it != dirty_words_.end() &&
           (it->second >> (page_index & 63)) & 1u;
  }

 private:
  using Slot = std::shared_ptr<Page>;

  // Direct-mapped cache of page-map slots. Map nodes are stable until
  // erased, so a slot pointer stays valid until the next flush.
  class Tlb {
   public:
    struct Entry {
      std::uint64_t page_index = kNoPage;
      Slot* slot = nullptr;
      bool dirty = false;  // the page's dirty bit is known to be set
    };
    Tlb() = default;
    // A copy's slots belong to another map: copies start empty, and a
    // moved-from TLB is flushed with its map.
    Tlb(const Tlb&) {}
    Tlb(Tlb&& other) noexcept { other.Flush(); }
    Tlb& operator=(const Tlb&) {
      Flush();
      return *this;
    }
    Tlb& operator=(Tlb&& other) noexcept {
      Flush();
      other.Flush();
      return *this;
    }

    Entry& For(std::uint64_t page_index) {
      // Fibonacci hashing: the top bits of the product, so pages whose
      // indices share low bits (0x300 and 0x400) land apart.
      return entries_[(page_index * 0x9E3779B97F4A7C15ull) >>
                      (64 - kEntryBits)];
    }
    void Flush() { entries_.fill(Entry{}); }
    void ForgetDirty() {
      for (Entry& e : entries_) e.dirty = false;
    }

   private:
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
    static constexpr int kEntryBits = 6;  // 64 entries
    std::array<Entry, std::size_t{1} << kEntryBits> entries_;
  };

  void MarkDirty(std::uint64_t page_index);
  Page& PageForWrite(std::uint64_t page_index) {
    Tlb::Entry& e = tlb_.For(page_index);
    if (e.page_index != page_index) return PageForWriteMiss(page_index, e);
    if (!e.dirty) {
      MarkDirty(page_index);
      e.dirty = true;
    }
    if (e.slot->use_count() > 1) CopyShared(*e.slot);
    return **e.slot;
  }
  // Returns nullptr for never-written pages (reads see zeros).
  const Page* PageForRead(std::uint64_t page_index) const {
    Tlb::Entry& e = tlb_.For(page_index);
    if (e.page_index == page_index) return e.slot->get();
    return PageForReadMiss(page_index, e);
  }
  Page& PageForWriteMiss(std::uint64_t page_index, Tlb::Entry& e);
  const Page* PageForReadMiss(std::uint64_t page_index, Tlb::Entry& e) const;
  // COW fault: gives `slot` a private copy of the page it shares.
  void CopyShared(Slot& slot);
  void WriteU64Straddling(std::uint64_t addr, std::uint64_t v);
  std::uint64_t ReadU64Straddling(std::uint64_t addr) const;

  // Pages are shared with snapshots; a write that hits a shared page
  // (use_count > 1) clones it first.
  std::map<std::uint64_t, Slot> pages_;
  // Demand-paged pages: content pending delivery, any touch faults.
  std::set<std::uint64_t> missing_;
  // Dirty bitmap: page-index word (index >> 6) -> 64-page bit mask.
  std::unordered_map<std::uint64_t, std::uint64_t> dirty_words_;
  mutable std::set<std::uint64_t> dirty_cache_;
  mutable bool dirty_cache_valid_ = true;
  std::uint64_t cow_faults_ = 0;
  mutable Tlb tlb_;
};

}  // namespace cruz::os
