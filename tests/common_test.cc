// Unit tests for the common substrate: byte codecs, CRC32, RNG, errno.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/sysresult.h"
#include "common/units.h"

namespace cruz {
namespace {

TEST(Bytes, RoundTripIntegers) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);

  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.PutU16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Bytes, BlobAndString) {
  ByteWriter w;
  Bytes blob = {1, 2, 3, 4, 5};
  w.PutBlob(blob);
  w.PutString("hello world");

  ByteReader r(w.data());
  EXPECT_EQ(r.GetBlob(), blob);
  EXPECT_EQ(r.GetString(), "hello world");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, EmptyBlob) {
  ByteWriter w;
  w.PutBlob({});
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetBlob().empty());
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.data());
  r.GetU16();
  EXPECT_THROW(r.GetU32(), CodecError);
}

TEST(Bytes, TruncatedBlobThrows) {
  ByteWriter w;
  w.PutU32(100);  // claims 100 bytes follow
  w.PutU8(1);
  ByteReader r(w.data());
  EXPECT_THROW(r.GetBlob(), CodecError);
}

TEST(Bytes, PatchU16AndU32) {
  ByteWriter w;
  w.PutU16(0);
  w.PutU32(0);
  w.PatchU16(0, 0xBEEF);
  w.PatchU32(2, 0x01020304);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU16(), 0xBEEF);
  EXPECT_EQ(r.GetU32(), 0x01020304u);
}

TEST(Bytes, SkipAndRemaining) {
  ByteWriter w;
  w.PutU64(1);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  r.Skip(5);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_THROW(r.Skip(4), CodecError);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") == 0xCBF43926 (standard check value).
  const char* s = "123456789";
  std::uint32_t crc = Crc32(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  Crc32Accumulator acc;
  acc.Update(ByteSpan(data.data(), 300));
  acc.Update(ByteSpan(data.data() + 300, 700));
  EXPECT_EQ(acc.Finish(), Crc32(data));
}

// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the reference both
// production kernels must match.
std::uint32_t BitwiseCrc32(ByteSpan data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// Checks `data` through the dispatched accumulator (the carry-less
// multiply kernel where the CPU has one), fed in `cuts`-delimited pieces,
// and through the portable slicing-by-8 routine.
void ExpectCrcMatches(ByteSpan data, const std::vector<std::size_t>& cuts,
                      const std::string& what) {
  std::uint32_t want = BitwiseCrc32(data);
  EXPECT_EQ(Crc32(data), want) << what;
  Crc32Accumulator acc;
  std::uint32_t sliced = 0xFFFFFFFFu;
  std::size_t at = 0;
  for (std::size_t cut : cuts) {
    acc.Update(data.subspan(at, cut - at));
    sliced = crc32_internal::UpdateSlicing8(sliced, data.subspan(at, cut - at));
    at = cut;
  }
  acc.Update(data.subspan(at));
  sliced = crc32_internal::UpdateSlicing8(sliced, data.subspan(at));
  EXPECT_EQ(acc.Finish(), want) << what << ", " << cuts.size() + 1 << " pieces";
  EXPECT_EQ(sliced ^ 0xFFFFFFFFu, want) << what << ", slicing-by-8";
}

TEST(Crc32, BothKernelsMatchBitwiseReference) {
  Rng rng(4242);
  Bytes buf((1u << 20) + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.NextBelow(256));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {4095u, 4096u, 4097u, 1u << 20}) lengths.push_back(n);
  for (std::size_t len : lengths) {
    // Start pointers 0-15 bytes past the allocation's alignment.
    std::size_t offset = len % 16;
    ByteSpan data(buf.data() + offset, len);
    // Up to 7 Update calls, split at random points.
    std::vector<std::size_t> cuts;
    for (std::size_t k = rng.NextBelow(7); k > 0; --k) {
      cuts.push_back(rng.NextBelow(len + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    ExpectCrcMatches(data, cuts,
                     "len " + std::to_string(len) + " offset " +
                         std::to_string(offset));
  }
  for (std::size_t offset = 1; offset < 16; ++offset) {
    ExpectCrcMatches(ByteSpan(buf.data() + offset, 4096), {},
                     "page at offset " + std::to_string(offset));
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.NextRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  // Child stream must not replay the parent stream.
  Rng parent2(21);
  parent2.Fork();
  EXPECT_EQ(parent.NextU64(), parent2.NextU64());
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(SysResult, ErrnoRoundTrip) {
  SysResult r = SysErr(CRUZ_EAGAIN);
  EXPECT_FALSE(SysOk(r));
  EXPECT_EQ(SysErrno(r), CRUZ_EAGAIN);
  EXPECT_TRUE(SysOk(0));
  EXPECT_TRUE(SysOk(42));
  EXPECT_EQ(SysErrno(42), CRUZ_EOK);
}

TEST(SysResult, ErrnoNames) {
  EXPECT_STREQ(ErrnoName(CRUZ_ECONNREFUSED), "ECONNREFUSED");
  EXPECT_STREQ(ErrnoName(CRUZ_EOK), "OK");
  EXPECT_STREQ(ErrnoName(CRUZ_EPIPE), "EPIPE");
}

TEST(Units, TransmitTime) {
  // 1500 bytes at 1 Gb/s = 12 microseconds.
  EXPECT_EQ(TransmitTimeNs(1500, 1'000'000'000), 12 * kMicrosecond);
  EXPECT_EQ(TransmitTimeNs(1500, 0), 0u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_DOUBLE_EQ(ToMillis(250 * kMicrosecond), 0.25);
  EXPECT_DOUBLE_EQ(ToMicros(3 * kMicrosecond), 3.0);
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(CRUZ_CHECK(false, "boom"), InvariantError);
  EXPECT_NO_THROW(CRUZ_CHECK(true, "fine"));
}

}  // namespace
}  // namespace cruz
