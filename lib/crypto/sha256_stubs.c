/* SHA-256's compression on the x86 SHA extensions (sha256rnds2,
   sha256msg1, sha256msg2), and the CPUID probe [Sha256] asks once, at
   module initialisation, before it selects this kernel over the
   generated OCaml compression.  The kernel is compiled for those
   extensions per function, so no global compiler flag is needed; on any
   other architecture or compiler the probe answers false and the kernel
   is never called.

   The chaining value is the digest's layout, eight big-endian 32-bit
   words in 32 bytes, as [Sha256_compress.compress] reads and writes it.
   [Sha256] checks the block and the chaining value's length in OCaml
   before the call: this file reads exactly 64 bytes at [pos] of [b] and
   the first 32 of [h]. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>
#include <stdint.h>

/* Round constants (FIPS 180-2, section 4.2.2). */
static const uint32_t k[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Rounds 4g to 4g + 3 on the schedule words [w]: sha256rnds2 does two
   rounds, on the low two words of its third operand, and updates CDGH
   from ABEF; the next two swap the roles. */
#define ROUNDS(w, g)                                                        \
  do {                                                                      \
    __m128i wk = _mm_add_epi32((w), _mm_load_si128((const __m128i *)&k[4 * (g)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                           \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));  \
  } while (0)

/* The next four schedule words, W[t, t + 4), into [w0], which holds
   W[t - 16, t - 12) on entry; w1, w2, w3 hold the 12 words after it. */
#define SCHEDULE(w0, w1, w2, w3)                                            \
  (w0 = _mm_sha256msg2_epu32(                                               \
       _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)), _mm_alignr_epi8((w3), (w2), 4)), (w3)))

__attribute__((target("sha,sse4.1,ssse3")))
static void compress(unsigned char *h, const unsigned char *b)
{
  /* Reverses the bytes of each 32-bit lane: big-endian words to native. */
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abcd = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)h), bswap);
  __m128i efgh = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(h + 16)), bswap);
  /* sha256rnds2 holds the state as ABEF and CDGH, A and C in the top
     lanes. */
  __m128i badc = _mm_shuffle_epi32(abcd, 0xB1);
  __m128i hgfe = _mm_shuffle_epi32(efgh, 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xF0);
  const __m128i abef0 = abef, cdgh0 = cdgh;
  __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)b), bswap);
  __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(b + 16)), bswap);
  __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(b + 32)), bswap);
  __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(b + 48)), bswap);
  ROUNDS(w0, 0);
  ROUNDS(w1, 1);
  ROUNDS(w2, 2);
  ROUNDS(w3, 3);
  for (int g = 4; g < 16; g += 4) {
    SCHEDULE(w0, w1, w2, w3);
    ROUNDS(w0, g);
    SCHEDULE(w1, w2, w3, w0);
    ROUNDS(w1, g + 1);
    SCHEDULE(w2, w3, w0, w1);
    ROUNDS(w2, g + 2);
    SCHEDULE(w3, w0, w1, w2);
    ROUNDS(w3, g + 3);
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  /* Back to ABCD and EFGH, then to big-endian bytes. */
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  abcd = _mm_blend_epi16(feba, dchg, 0xF0);
  efgh = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128((__m128i *)h, _mm_shuffle_epi8(abcd, bswap));
  _mm_storeu_si128((__m128i *)(h + 16), _mm_shuffle_epi8(efgh, bswap));
}

value eric_sha256_compress(value h, value b, value pos)
{
  compress(Bytes_val(h), Bytes_val(b) + Long_val(pos));
  return Val_unit;
}

/* CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19
   (SSE4.1). */
value eric_sha256_sha_extensions(value unit)
{
  unsigned int eax, ebx, ecx, edx;
  (void)unit;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return Val_false;
  if (!(ecx & (1u << 9)) || !(ecx & (1u << 19))) return Val_false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return Val_false;
  return Val_bool(ebx & (1u << 29));
}

#else

#include <stdlib.h>

/* Never called: the probe below answers false. */
value eric_sha256_compress(value h, value b, value pos)
{
  (void)h;
  (void)b;
  (void)pos;
  abort();
}

value eric_sha256_sha_extensions(value unit)
{
  (void)unit;
  return Val_false;
}

#endif
