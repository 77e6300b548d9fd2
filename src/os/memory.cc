#include "os/memory.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace cruz::os {

void Memory::MarkDirty(std::uint64_t page_index) {
  std::uint64_t& word = dirty_words_[page_index >> 6];
  std::uint64_t bit = 1ull << (page_index & 63);
  if ((word & bit) == 0) {
    word |= bit;
    dirty_cache_valid_ = false;
  }
}

const std::set<std::uint64_t>& Memory::dirty_pages() const {
  if (!dirty_cache_valid_) {
    dirty_cache_.clear();
    for (const auto& [word_index, word] : dirty_words_) {
      std::uint64_t bits = word;
      while (bits != 0) {
        int bit = std::countr_zero(bits);
        dirty_cache_.insert((word_index << 6) | static_cast<unsigned>(bit));
        bits &= bits - 1;
      }
    }
    dirty_cache_valid_ = true;
  }
  return dirty_cache_;
}

Memory::Page& Memory::PageForWriteMiss(std::uint64_t page_index,
                                       Tlb::Entry& e) {
  if (!missing_.empty() && missing_.count(page_index) != 0) {
    throw PageFault{page_index};
  }
  MarkDirty(page_index);
  auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    it = pages_.emplace(page_index, std::make_shared<Page>(kPageSize, 0))
             .first;
  } else if (it->second.use_count() > 1) {
    CopyShared(it->second);
  }
  e = Tlb::Entry{page_index, &it->second, /*dirty=*/true};
  return *it->second;
}

const Memory::Page* Memory::PageForReadMiss(std::uint64_t page_index,
                                            Tlb::Entry& e) const {
  if (!missing_.empty() && missing_.count(page_index) != 0) {
    throw PageFault{page_index};
  }
  auto it = pages_.find(page_index);
  if (it == pages_.end()) return nullptr;  // absent pages are not cached
  // The map is const here only because reads are; the slot is written
  // through solely by PageForWrite on this same (non-const) Memory.
  e = Tlb::Entry{page_index, const_cast<Slot*>(&it->second),
                 /*dirty=*/false};
  return it->second.get();
}

void Memory::CopyShared(Slot& slot) {
  // The page is shared with at least one snapshot: copy before the
  // write so the snapshot's view stays frozen (COW fault).
  slot = std::make_shared<Page>(*slot);
  ++cow_faults_;
}

void Memory::WriteBytes(std::uint64_t addr, cruz::ByteSpan data) {
  std::size_t done = 0;
  while (done < data.size()) {
    std::uint64_t a = addr + done;
    std::uint64_t page_index = a >> kPageShift;
    std::size_t offset = static_cast<std::size_t>(a & (kPageSize - 1));
    std::size_t n = std::min(data.size() - done, kPageSize - offset);
    Page& page = PageForWrite(page_index);
    std::memcpy(page.data() + offset, data.data() + done, n);
    done += n;
  }
}

void Memory::ReadBytes(std::uint64_t addr, std::uint8_t* out,
                       std::size_t n) const {
  std::size_t done = 0;
  while (done < n) {
    std::uint64_t a = addr + done;
    std::uint64_t page_index = a >> kPageShift;
    std::size_t offset = static_cast<std::size_t>(a & (kPageSize - 1));
    std::size_t take = std::min(n - done, kPageSize - offset);
    const Page* page = PageForRead(page_index);
    if (page != nullptr) {
      std::memcpy(out + done, page->data() + offset, take);
    } else {
      std::memset(out + done, 0, take);
    }
    done += take;
  }
}

cruz::Bytes Memory::ReadBytes(std::uint64_t addr, std::size_t n) const {
  cruz::Bytes out(n);
  ReadBytes(addr, out.data(), n);
  return out;
}

void Memory::WriteU64Straddling(std::uint64_t addr, std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  WriteBytes(addr, cruz::ByteSpan(buf, 8));
}

std::uint64_t Memory::ReadU64Straddling(std::uint64_t addr) const {
  std::uint8_t buf[8];
  ReadBytes(addr, buf, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buf[i];
  }
  return v;
}

void Memory::InstallPage(std::uint64_t page_index, cruz::ByteSpan content) {
  CRUZ_CHECK(content.size() == kPageSize, "InstallPage: wrong size");
  pages_[page_index] =
      std::make_shared<Page>(content.begin(), content.end());
  MarkDirty(page_index);
}

void Memory::MarkMissing(std::uint64_t page_index) {
  CRUZ_CHECK(pages_.find(page_index) == pages_.end(),
             "MarkMissing: page is resident");
  missing_.insert(page_index);
}

bool Memory::FillPage(std::uint64_t page_index, cruz::ByteSpan content) {
  if (missing_.erase(page_index) == 0) return false;
  InstallPage(page_index, content);
  return true;
}

void Memory::DropZeroPages() {
  for (auto it = pages_.begin(); it != pages_.end();) {
    bool all_zero =
        std::all_of(it->second->begin(), it->second->end(),
                    [](std::uint8_t b) { return b == 0; });
    it = all_zero ? pages_.erase(it) : std::next(it);
  }
  tlb_.Flush();
}

MemorySnapshot Memory::Snapshot() const {
  CRUZ_CHECK(missing_.empty(), "Snapshot: demand paging in progress");
  MemorySnapshot::PageMap shared;
  for (const auto& [index, page] : pages_) {
    shared.emplace(index, page);
  }
  return MemorySnapshot(std::move(shared));
}

}  // namespace cruz::os
