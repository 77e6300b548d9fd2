// Internal CRC-32 kernels, exposed so tests can run the portable
// routine on hosts where Crc32Accumulator dispatches to the carry-less
// multiply kernel. Not part of the public API.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace cruz::crc32_internal {

// Slicing-by-8 over `data`, continuing from the pre-inversion register
// `state` (0xFFFFFFFF for a fresh checksum); returns the new register.
std::uint32_t UpdateSlicing8(std::uint32_t state, ByteSpan data);

}  // namespace cruz::crc32_internal
