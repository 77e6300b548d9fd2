// Per-page compression codec for checkpoint images (paper §5.2,
// "checkpoint compression" future work).
//
// Checkpoint memory is dominated by pages that are mostly zero or carry
// long byte runs (stencil grids, zeroed heaps), so a byte-level run-length
// codec gets large wins without external dependencies. Every encoded page
// is self-describing and self-checking:
//
//   [u8 codec id][u32 CRC-32 of the raw page][codec payload]
//
// kRaw stores the 4 KiB page verbatim; kRle stores (u16 run length,
// u8 value) tokens whose lengths must sum to exactly kPageSize. The
// encoder counts the page's runs first and uses kRle only when the
// tokens are strictly smaller than the page, so compression never
// expands a page beyond 5 bytes of header. DecodePage verifies the run
// structure and the CRC and throws CodecError on any corruption — a
// single flipped bit in a compressed page is detected here even if the
// image's outer CRC was fixed up by an attacker or recomputed after the
// corruption.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace cruz::ckpt {

enum class PageCodec : std::uint8_t {
  kRaw = 0,  // verbatim page bytes
  kRle = 1,  // run-length tokens (u16 length, u8 value)
};

// Encodes one kPageSize page. `preferred` selects the target codec; the
// encoder falls back to kRaw unless RLE is strictly smaller.
cruz::Bytes EncodePage(cruz::ByteSpan page, PageCodec preferred);

// Appends the same encoding to `out` as a u32-length-prefixed blob: the
// bytes of out.PutBlob(EncodePage(page, preferred)), without the
// intermediate buffers. The image writer's path.
void PutEncodedPageBlob(cruz::ByteWriter& out, cruz::ByteSpan page,
                        PageCodec preferred);

// Decodes one encoded page back to exactly kPageSize bytes. Throws
// CodecError on unknown codec ids, malformed run structure, truncation,
// or a CRC mismatch against the recorded raw-page checksum.
cruz::Bytes DecodePage(cruz::ByteSpan encoded);

}  // namespace cruz::ckpt
