#include "core/checksum.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/checksum_kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#include <tmmintrin.h>
#define IPD_X86_KERNELS 1
#endif

namespace ipd {
namespace {

constexpr std::uint32_t kAdlerMod = 65521;
// 5552 is the largest n such that 255*n*(n+1)/2 + (n+1)*(kAdlerMod-1)
// fits in 32 bits; defer the expensive modulo until then. It is also a
// multiple of 16, so only the last chunk has a tail.
constexpr std::size_t kAdlerNmax = 5552;

// Slice-by-8 tables for the reflected polynomial 0x82F63B78 (0x1EDC6F41).
// Row 0 is the bytewise table; row k advances a byte's CRC through k
// further zero bytes, so eight lookups consume eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc32c_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc32c_tables();

// Appending zero bytes to a CRC register is linear over GF(2): a 32x32
// bit matrix, kept as the images of the 32 basis vectors.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2_times(const Gf2Matrix& m,
                                  std::uint32_t v) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) sum ^= m[i];
  }
  return sum;
}

// Zero-extension tables for the three-stream kernel, laid out as in Mark
// Adler's crc32c.c: row k maps byte k of a register to its contribution
// after kZeroBytes zero bytes, so one shift is four lookups.
using CrcShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

template <std::size_t kZeroBytes>
constexpr CrcShiftTables make_crc32c_shift_tables() {
  static_assert(kZeroBytes > 0 && (kZeroBytes & (kZeroBytes - 1)) == 0,
                "squaring builds power-of-two shifts only");
  Gf2Matrix op{};  // one zero byte
  for (std::size_t i = 0; i < op.size(); ++i) {
    const std::uint32_t bit = 1u << i;
    op[i] = kCrcTables[0][bit & 0xFF] ^ (bit >> 8);
  }
  for (std::size_t n = 1; n < kZeroBytes; n *= 2) {
    Gf2Matrix square{};
    for (std::size_t i = 0; i < op.size(); ++i) {
      square[i] = gf2_times(op, op[i]);
    }
    op = square;
  }
  CrcShiftTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < t.size(); ++k) {
      t[k][b] = gf2_times(op, b << (8 * k));
    }
  }
  return t;
}

constexpr std::uint32_t crc32c_shift(const CrcShiftTables& t,
                                     std::uint32_t crc) noexcept {
  return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
         t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
}

// Block sizes of the three-stream kernel: long blocks amortise the merge
// over 8 KiB each, short ones keep inputs under 24 KiB off the word loop.
constexpr std::size_t kCrcLongBlock = 8192;
constexpr std::size_t kCrcShortBlock = 256;
constexpr CrcShiftTables kCrcLongShift =
    make_crc32c_shift_tables<kCrcLongBlock>();
constexpr CrcShiftTables kCrcShortShift =
    make_crc32c_shift_tables<kCrcShortBlock>();

// The same register pushed through n zero bytes by the slice-by-8 rows:
// the definition each shift table must agree with.
constexpr std::uint32_t crc32c_append_zeros(std::uint32_t crc,
                                            std::size_t n) noexcept {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; n -= 8) {
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24];
  }
  for (; n > 0; --n) {
    crc = t[0][crc & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

constexpr bool shift_matches_zeros(const CrcShiftTables& t, std::size_t n) {
  for (const std::uint32_t crc : {0x00000001u, 0x80000000u, 0xDEADBEEFu,
                                  0xFFFFFFFFu, 0x12345678u}) {
    if (crc32c_shift(t, crc) != crc32c_append_zeros(crc, n)) return false;
  }
  return true;
}

static_assert(shift_matches_zeros(kCrcLongShift, kCrcLongBlock));
static_assert(shift_matches_zeros(kCrcShortShift, kCrcShortBlock));

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

// Kernels update the inverted CRC register; crc32c() applies the
// inversions at both ends.
using CrcKernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                    std::size_t) noexcept;

std::uint32_t crc32c_slice8(std::uint32_t crc, const std::uint8_t* p,
                            std::size_t n) noexcept {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef IPD_X86_KERNELS
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);  // any alignment is legal
  return word;
}

// Consumes 3 * kBlock bytes at a time as three adjacent blocks on
// independent crc32 chains, so the instruction runs at its throughput
// rather than its 3-cycle latency, then merges each triple: CRC(A B) is
// CRC(A) shifted past |B| zero bytes, xor CRC of B from a zero register.
template <std::size_t kBlock>
__attribute__((target("sse4.2"), always_inline)) inline std::uint64_t
crc32c_three_streams(std::uint64_t crc0, const std::uint8_t*& p,
                     std::size_t& n, const CrcShiftTables& shift) noexcept {
  for (; n >= 3 * kBlock; n -= 3 * kBlock, p += 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      crc0 = _mm_crc32_u64(crc0, load_le64(p + i));
      crc1 = _mm_crc32_u64(crc1, load_le64(p + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, load_le64(p + 2 * kBlock + i));
    }
    crc0 = crc32c_shift(shift, static_cast<std::uint32_t>(crc0)) ^ crc1;
    crc0 = crc32c_shift(shift, static_cast<std::uint32_t>(crc0)) ^ crc2;
  }
  return crc0;
}

// SSE4.2's crc32 instruction implements this exact polynomial and
// consumes 8 bytes per instruction: three streams over long blocks, then
// short ones, then one chain of words and a byte tail. The target
// attribute compiles this one function for SSE4.2; crc32c() only calls
// it after CPUID says so.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t crc64 = crc;
  crc64 = crc32c_three_streams<kCrcLongBlock>(crc64, p, n, kCrcLongShift);
  crc64 = crc32c_three_streams<kCrcShortBlock>(crc64, p, n, kCrcShortShift);
  for (; n >= 8; n -= 8, p += 8) {
    crc64 = _mm_crc32_u64(crc64, load_le64(p));
  }
  crc = static_cast<std::uint32_t>(crc64);
  for (; n > 0; --n, ++p) {
    crc = _mm_crc32_u8(crc, *p);
  }
  return crc;
}
#endif

CrcKernel pick_crc32c_kernel() noexcept {
#ifdef IPD_X86_KERNELS
  __builtin_cpu_init();  // may run before libgcc's own constructor
  if (__builtin_cpu_supports("sse4.2")) {
    return crc32c_sse42;
  }
#endif
  return crc32c_slice8;
}

// Adler-32 kernels take and return the packed (b << 16) | a state.
using AdlerKernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                      std::size_t) noexcept;

std::uint32_t adler32_do16(std::uint32_t adler, const std::uint8_t* p,
                           std::size_t n) noexcept {
  std::uint32_t a = adler & 0xFFFF;
  std::uint32_t b = (adler >> 16) & 0xFFFF;
  while (n > 0) {
    std::size_t chunk = std::min(kAdlerNmax, n);
    n -= chunk;
    // zlib's DO16: sixteen steps of `a += d[k]; b += a` sum to
    // b += 16a + Σ(16-k)·d[k] and a += Σd[k], with no serial chain
    // between the bytes of a block.
    for (; chunk >= 16; chunk -= 16, p += 16) {
      std::uint32_t sum = 0;
      std::uint32_t weighted = 0;
      for (std::uint32_t k = 0; k < 16; ++k) {
        sum += p[k];
        weighted += (16 - k) * p[k];
      }
      b += 16 * a + weighted;
      a += sum;
    }
    for (; chunk > 0; --chunk, ++p) {
      a += *p;
      b += a;
    }
    a %= kAdlerMod;
    b %= kAdlerMod;
  }
  return (b << 16) | a;
}

#ifdef IPD_X86_KERNELS
// SSSE3 Adler-32, 32 bytes per step. Over a block d[0..31], a grows by
// Σd[k] (psadbw against zero) and b by 32a + Σ(32-k)·d[k] (pmaddubsw
// with the weights 32..1, then pmaddwd to widen). The 32a terms are
// summed as the running a of every block, shifted left by 5 once per
// chunk; the modulo waits until kAdlerNmax bytes, as in the DO16 path.
__attribute__((target("ssse3"))) std::uint32_t adler32_ssse3(
    std::uint32_t adler, const std::uint8_t* p, std::size_t n) noexcept {
  constexpr std::size_t kBlock = 32;
  std::uint32_t a = adler & 0xFFFF;
  std::uint32_t b = (adler >> 16) & 0xFFFF;
  const __m128i weights_lo = _mm_setr_epi8(32, 31, 30, 29, 28, 27, 26, 25,
                                           24, 23, 22, 21, 20, 19, 18, 17);
  const __m128i weights_hi = _mm_setr_epi8(16, 15, 14, 13, 12, 11, 10, 9, 8,
                                           7, 6, 5, 4, 3, 2, 1);
  const __m128i zero = _mm_setzero_si128();
  const __m128i ones = _mm_set1_epi16(1);
  std::size_t blocks = n / kBlock;
  n -= blocks * kBlock;
  while (blocks > 0) {
    std::size_t chunk = std::min(kAdlerNmax / kBlock, blocks);
    blocks -= chunk;
    // The a of every block start, beginning with a * chunk for the a
    // carried in; v_a holds the bytes summed so far in this chunk.
    __m128i v_prefix = _mm_cvtsi32_si128(static_cast<int>(a * chunk));
    __m128i v_a = zero;
    __m128i v_b = _mm_cvtsi32_si128(static_cast<int>(b));
    for (; chunk > 0; --chunk, p += kBlock) {
      const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
      v_prefix = _mm_add_epi32(v_prefix, v_a);
      v_a = _mm_add_epi32(v_a, _mm_sad_epu8(lo, zero));
      v_a = _mm_add_epi32(v_a, _mm_sad_epu8(hi, zero));
      v_b = _mm_add_epi32(
          v_b, _mm_madd_epi16(_mm_maddubs_epi16(lo, weights_lo), ones));
      v_b = _mm_add_epi32(
          v_b, _mm_madd_epi16(_mm_maddubs_epi16(hi, weights_hi), ones));
    }
    v_b = _mm_add_epi32(v_b, _mm_slli_epi32(v_prefix, 5));
    // Horizontal sums of the four 32-bit lanes.
    v_a = _mm_add_epi32(v_a, _mm_shuffle_epi32(v_a, _MM_SHUFFLE(1, 0, 3, 2)));
    v_b = _mm_add_epi32(v_b, _mm_shuffle_epi32(v_b, _MM_SHUFFLE(2, 3, 0, 1)));
    v_b = _mm_add_epi32(v_b, _mm_shuffle_epi32(v_b, _MM_SHUFFLE(1, 0, 3, 2)));
    a = (a + static_cast<std::uint32_t>(_mm_cvtsi128_si32(v_a))) % kAdlerMod;
    b = static_cast<std::uint32_t>(_mm_cvtsi128_si32(v_b)) % kAdlerMod;
  }
  return adler32_do16((b << 16) | a, p, n);
}
#endif

AdlerKernel pick_adler32_kernel() noexcept {
#ifdef IPD_X86_KERNELS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("ssse3")) {
    return adler32_ssse3;
  }
#endif
  return adler32_do16;
}

}  // namespace

std::uint32_t adler32(ByteView data, std::uint32_t seed) noexcept {
  static const AdlerKernel kernel = pick_adler32_kernel();
  return kernel(seed, data.data(), data.size());
}

std::uint32_t crc32c(ByteView data, std::uint32_t seed) noexcept {
  static const CrcKernel kernel = pick_crc32c_kernel();
  return ~kernel(~seed, data.data(), data.size());
}

namespace detail {

std::uint32_t crc32c_portable(ByteView data, std::uint32_t seed) noexcept {
  return ~crc32c_slice8(~seed, data.data(), data.size());
}

std::uint32_t adler32_portable(ByteView data, std::uint32_t seed) noexcept {
  return adler32_do16(seed, data.data(), data.size());
}

}  // namespace detail

}  // namespace ipd
