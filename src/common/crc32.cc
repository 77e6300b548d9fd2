#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_internal.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <immintrin.h>
#define CRUZ_CRC32_CLMUL 1
#endif

namespace cruz {
namespace {

// Slicing-by-8: table[0] is the classic byte-wise CRC-32 (IEEE,
// reflected 0xEDB88320) table; table[k][b] extends table[k-1][b] by one
// zero byte. Eight input bytes are then folded per iteration with eight
// independent lookups instead of an 8-deep dependency chain, which is
// what makes checkpoint page checksumming CPU-bound on table lookups
// rather than on the serial (crc >> 8) recurrence.
struct SlicingTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  SlicingTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

const SlicingTables& Tables() {
  static const SlicingTables tables;
  return tables;
}

#ifdef CRUZ_CRC32_CLMUL

#define CRUZ_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CRUZ_CLMUL_TARGET inline __m128i Load(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// One 128-bit fold step: x * k.lo ^ x * k.hi ^ next.
CRUZ_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), with
// that whitepaper's bit-reflected constants for 0xEDB88320:
// x^(4*128+32) and x^(4*128-32) mod P fold four 128-bit lanes 64 bytes
// ahead, x^(128+32) and x^(128-32) fold one lane 16 bytes ahead, x^64
// mod P folds 128 to 64 bits, and the last pair is P and
// floor(x^64 / P) for the Barrett reduction to 32 bits. Needs n >= 64
// and n % 16 == 0.
CRUZ_CLMUL_TARGET std::uint32_t UpdateClmul(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  alignas(16) static const std::uint64_t k1k2[2] = {0x0154442bd4,
                                                    0x01c6e41596};
  alignas(16) static const std::uint64_t k3k4[2] = {0x01751997d0,
                                                    0x00ccaa009e};
  alignas(16) static const std::uint64_t k5k0[2] = {0x0163cd6124, 0};
  alignas(16) static const std::uint64_t poly[2] = {0x01db710641,
                                                    0x01f7011641};
  __m128i x1 = _mm_xor_si128(Load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load(p + 16);
  __m128i x3 = Load(p + 32);
  __m128i x4 = Load(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  while (n >= 64) {
    x1 = Fold(x1, k, Load(p));
    x2 = Fold(x2, k, Load(p + 16));
    x3 = Fold(x3, k, Load(p + 32));
    x4 = Fold(x4, k, Load(p + 48));
    p += 64;
    n -= 64;
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = Fold(x1, k, x2);
  x1 = Fold(x1, k, x3);
  x1 = Fold(x1, k, x4);
  while (n >= 16) {
    x1 = Fold(x1, k, Load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x00), t);

  // Barrett reduction, 64 -> 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  t = _mm_and_si128(x1, mask32);
  t = _mm_clmulepi64_si128(t, k, 0x10);
  t = _mm_and_si128(t, mask32);
  t = _mm_clmulepi64_si128(t, k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();  // safe even if called before main()
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#undef CRUZ_CLMUL_TARGET

#endif  // CRUZ_CRC32_CLMUL

}  // namespace

std::uint32_t crc32_internal::UpdateSlicing8(std::uint32_t c,
                                             ByteSpan data) {
  const auto& t = Tables().t;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // Byte-assembled little-endian loads keep the fold endian-neutral.
    std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                       (static_cast<std::uint32_t>(p[1]) << 8) |
                       (static_cast<std::uint32_t>(p[2]) << 16) |
                       (static_cast<std::uint32_t>(p[3]) << 24);
    std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                       (static_cast<std::uint32_t>(p[5]) << 8) |
                       (static_cast<std::uint32_t>(p[6]) << 16) |
                       (static_cast<std::uint32_t>(p[7]) << 24);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

void Crc32Accumulator::Update(ByteSpan data) {
#ifdef CRUZ_CRC32_CLMUL
  // The folding kernel takes whole 16-byte blocks; slicing-by-8 finishes
  // the tail (and short inputs, where the kernel's setup does not pay).
  if (data.size() >= 64 && HasClmul()) {
    std::size_t blocks = data.size() & ~std::size_t{15};
    state_ = UpdateClmul(state_, data.data(), blocks);
    data = data.subspan(blocks);
  }
#endif
  state_ = crc32_internal::UpdateSlicing8(state_, data);
}

std::uint32_t Crc32(ByteSpan data) {
  Crc32Accumulator acc;
  acc.Update(data);
  return acc.Finish();
}

}  // namespace cruz
