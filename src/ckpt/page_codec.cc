#include "ckpt/page_codec.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32.h"
#include "common/error.h"
#include "os/memory.h"

namespace cruz::ckpt {

namespace {

// A page cannot hold a run longer than a token's u16 length, so every
// maximal run is exactly one token.
static_assert(os::kPageSize <= 0xFFFF, "one RLE token per run");

constexpr std::size_t kHeaderBytes = 5;  // u8 codec id + u32 CRC
constexpr std::size_t kTokenBytes = 3;   // u16 run length + u8 value

std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// Pages with this many runs or more are stored raw: their tokens would
// be at least as long as the page.
constexpr std::size_t kRawRuns =
    (os::kPageSize + kTokenBytes - 1) / kTokenBytes;

// Number of maximal byte runs in the page, or some count >= kRawRuns
// once the page is known to store raw (a noise page stops after about a
// third of it). A run starts at byte 0 and wherever a byte differs from
// the one before. Eight positions per step: XOR the page against itself
// shifted by one byte and count the nonzero bytes. A byte's high bit is
// set after the add iff its low seven bits are not all zero, and OR-ing
// in the word covers its own high bit; the multiply sums the eight 0/1
// bytes into the top byte (no popcount instruction on baseline x86-64).
std::size_t CountRuns(const std::uint8_t* p) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  std::size_t runs = 1;
  std::size_t i = 1;
  for (; i + 8 <= os::kPageSize; i += 8) {
    std::uint64_t diff = Load64(p + i) ^ Load64(p + i - 1);
    std::uint64_t nonzero = (((diff & kLow7) + kLow7) | diff) & kHigh;
    runs += static_cast<std::size_t>(((nonzero >> 7) * kOnes) >> 56);
    if (runs >= kRawRuns) return runs;
  }
  for (; i < os::kPageSize; ++i) runs += p[i] != p[i - 1];
  return runs;
}

// Length of the run of p[start] starting at `start`. Scans eight bytes
// per step: XOR against a splatted word leaves the first mismatching
// byte nonzero, and the endian-appropriate zero count locates it in
// memory order.
std::size_t RunLength(const std::uint8_t* p, std::size_t start) {
  const std::uint64_t splat = 0x0101010101010101ull * p[start];
  std::size_t i = start;
  while (i + 8 <= os::kPageSize) {
    std::uint64_t diff = Load64(p + i) ^ splat;
    if (diff != 0) {
      int first = std::endian::native == std::endian::little
                      ? std::countr_zero(diff) / 8
                      : std::countl_zero(diff) / 8;
      return i + static_cast<std::size_t>(first) - start;
    }
    i += 8;
  }
  while (i < os::kPageSize && p[i] == p[start]) ++i;
  return i - start;
}

// Appends the encoded page, preceded by its u32 length when `blob`. The
// run count fixes the RLE size before any token is written, so an
// incompressible page goes straight to kRaw: RLE is used only when it
// is strictly smaller than the raw page.
void Encode(cruz::ByteWriter& out, cruz::ByteSpan page, PageCodec preferred,
            bool blob) {
  CRUZ_CHECK(page.size() == os::kPageSize, "EncodePage: wrong page size");
  const std::uint8_t* p = page.data();
  std::size_t runs = preferred == PageCodec::kRle ? CountRuns(p) : kRawRuns;
  bool rle = runs < kRawRuns;
  std::size_t payload = rle ? kTokenBytes * runs : os::kPageSize;
  if (blob) out.PutU32(static_cast<std::uint32_t>(kHeaderBytes + payload));
  out.PutU8(static_cast<std::uint8_t>(rle ? PageCodec::kRle
                                          : PageCodec::kRaw));
  out.PutU32(cruz::Crc32(page));
  if (!rle) {
    out.PutBytes(page);
    return;
  }
  std::array<std::uint8_t, os::kPageSize> tokens;
  std::uint8_t* t = tokens.data();
  for (std::size_t i = 0; i < os::kPageSize;) {
    std::size_t run = RunLength(p, i);
    t[0] = static_cast<std::uint8_t>(run >> 8);
    t[1] = static_cast<std::uint8_t>(run);
    t[2] = p[i];
    t += kTokenBytes;
    i += run;
  }
  out.PutBytes(tokens.data(), payload);
}

}  // namespace

cruz::Bytes EncodePage(cruz::ByteSpan page, PageCodec preferred) {
  cruz::ByteWriter out(kHeaderBytes + os::kPageSize);
  Encode(out, page, preferred, /*blob=*/false);
  return out.Take();
}

void PutEncodedPageBlob(cruz::ByteWriter& out, cruz::ByteSpan page,
                        PageCodec preferred) {
  Encode(out, page, preferred, /*blob=*/true);
}

cruz::Bytes DecodePage(cruz::ByteSpan encoded) {
  cruz::ByteReader r(encoded);
  std::uint8_t codec = r.GetU8();
  std::uint32_t crc = r.GetU32();
  cruz::Bytes page(os::kPageSize);
  switch (static_cast<PageCodec>(codec)) {
    case PageCodec::kRaw:
      std::memcpy(page.data(), r.GetSpan(os::kPageSize).data(),
                  os::kPageSize);
      break;
    case PageCodec::kRle: {
      std::size_t filled = 0;
      while (filled < os::kPageSize) {
        std::uint16_t run = r.GetU16();
        std::uint8_t value = r.GetU8();
        if (run == 0 || filled + run > os::kPageSize) {
          throw cruz::CodecError("compressed page: malformed run length");
        }
        std::memset(page.data() + filled, value, run);
        filled += run;
      }
      break;
    }
    default:
      throw cruz::CodecError("compressed page: unknown codec id " +
                             std::to_string(codec));
  }
  if (!r.AtEnd()) {
    throw cruz::CodecError("compressed page: trailing bytes");
  }
  if (cruz::Crc32(page) != crc) {
    throw cruz::CodecError("compressed page: CRC mismatch");
  }
  return page;
}

}  // namespace cruz::ckpt
