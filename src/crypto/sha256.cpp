#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define GPBFT_SHA256_X86 1
#endif

namespace gpbft::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                        0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}
inline std::uint32_t choose(std::uint32_t e, std::uint32_t f, std::uint32_t g) {
  return (e & f) ^ (~e & g);
}
inline std::uint32_t majority(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return (a & b) ^ (a & c) ^ (b & c);
}

constexpr char kHexDigits[] = "0123456789abcdef";

using CompressFn = void (*)(std::array<std::uint32_t, 8>&, const std::uint8_t*, std::size_t);

/// Runs the compress kernel for this CPU, chosen once on first use: SHA-NI
/// when the CPU has it, the scalar rounds otherwise.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data, std::size_t blocks) {
  static const CompressFn kernel =
      detail::sha_ni_supported() ? detail::compress_sha_ni : detail::compress_scalar;
  kernel(state, data, blocks);
}

}  // namespace

namespace detail {

void compress_scalar(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                     std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + big_sigma1(e) + choose(e, f, g) + kRoundConstants[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + majority(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef GPBFT_SHA256_X86

bool sha_ni_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

// The Intel SHA extensions keep the working variables as two vectors,
// ABEF and CDGH; sha256rnds2 runs two rounds, sha256msg1/msg2 extend the
// message schedule four words at a time. Group i below covers rounds
// 4i..4i+3: it feeds schedule words W[4i..4i+3] (held in w[i % 4]) into the
// rounds, finishes W[4i+4..4i+7] with msg2 and starts W[4i+12..4i+15] with
// msg1.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(std::array<std::uint32_t, 8>& state,
                                                          const std::uint8_t* data,
                                                          std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  const __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xB1);  // CDAB
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)), 0x1B);  // HGFE
  __m128i abef = _mm_alignr_epi8(abcd, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, abcd, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (std::size_t i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byte_swap);
    }
#pragma GCC unroll 16
    for (std::size_t i = 0; i < 16; ++i) {
      const __m128i cur = w[i % 4];
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (i >= 3 && i <= 14) {
        __m128i& next = w[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (i >= 1 && i <= 12) w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], cur);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#else  // no x86 SHA extensions on this architecture

bool sha_ni_supported() { return false; }

void compress_sha_ni(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                     std::size_t blocks) {
  compress_scalar(state, data, blocks);
}

#endif

}  // namespace detail

std::string Hash256::hex() const {
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::string Hash256::short_hex() const { return hex().substr(0, 8); }

bool Hash256::is_zero() const {
  for (std::uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

Sha256::Sha256() : state_(kInitialState), buffer_{} {}

void Sha256::update(BytesView data) {
  if (data.empty()) return;  // its data() may be null, which memcpy must not see
  total_len_ += data.size();
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < 64) return;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }

  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }

  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Sha256::update(std::string_view data) {
  update(BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Hash256 Sha256::finalize() {
  // Padding (FIPS 180-4 §5.1.1) is written straight into the buffer: 0x80,
  // zeros up to byte 56 of the last block, then the 64-bit big-endian
  // message length in bits. When more than 55 message bytes are buffered
  // the 0x80 leaves no room for the length, so the zero-filled block is
  // compressed first and the length goes into a second, all-zero block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, buffer_.data(), 1);

  Hash256 out;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint32_t word = state_[i];
    out.bytes[i * 4] = static_cast<std::uint8_t>(word >> 24);
    out.bytes[i * 4 + 1] = static_cast<std::uint8_t>(word >> 16);
    out.bytes[i * 4 + 2] = static_cast<std::uint8_t>(word >> 8);
    out.bytes[i * 4 + 3] = static_cast<std::uint8_t>(word);
  }
  return out;
}

Hash256 sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Hash256 sha256(std::string_view data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Hash256 sha256d(BytesView data) {
  const Hash256 first = sha256(data);
  return sha256(first.view());
}

}  // namespace gpbft::crypto
