/* The page sealer's two kernels: ChaCha20 keystream-XOR over a byte
   range (RFC 8439) and SipHash-2-4 over a prefix (Aumasson & Bernstein).

   Portable C99, called from Chacha20.xor_into and Siphash.hash_prefix
   through [@@noalloc] externals with unboxed and untagged arguments.
   The OCaml side checks every range before the call, so these
   functions trust their lengths and offsets.  They read and write
   words in explicit little-endian byte order (no native-endian
   memcpy, no alignment assumption), branch only on lengths (never on
   key or data), keep no global state (so any number of domains may
   call them at once) and allocate nothing.  The [_byte] functions are
   the bytecode entry points; only they box.

   Output is bit-identical to the boxed OCaml references Chacha20_ref
   and Siphash_ref; test/test_crypto.ml checks both differentially. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static inline uint32_t load32_le(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static inline void store32_le(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
}

static inline uint64_t load64_le(const unsigned char *p)
{
  return (uint64_t)load32_le(p) | ((uint64_t)load32_le(p + 4) << 32);
}

static inline uint32_t rotl32(uint32_t x, int n)
{
  return (x << n) | (x >> (32 - n));
}

static inline uint64_t rotl64(uint64_t x, int n)
{
  return (x << n) | (x >> (64 - n));
}

/* --- ChaCha20 ----------------------------------------------------------- */

#define QR(a, b, c, d)                                                    \
  do {                                                                    \
    a += b; d = rotl32(d ^ a, 16);                                        \
    c += d; b = rotl32(b ^ c, 12);                                        \
    a += b; d = rotl32(d ^ a, 8);                                         \
    c += d; b = rotl32(b ^ c, 7);                                         \
  } while (0)

/* Write the first [len] bytes of [src], XORed with the keystream of
   [key] and [nonce] from block [counter] on, to [dst] at [dst_off].
   The 32-bit block counter wraps.  Word by word in ascending order,
   and byte by byte for the last [len mod 4] bytes. */
value sim_crypto_chacha20_xor(value key, int32_t counter, value nonce,
                              value src, intnat len, value dst,
                              intnat dst_off)
{
  const unsigned char *k = Bytes_val(key), *nc = Bytes_val(nonce);
  const unsigned char *s = Bytes_val(src);
  unsigned char *d = Bytes_val(dst) + dst_off;
  const uint32_t i4 = load32_le(k), i5 = load32_le(k + 4);
  const uint32_t i6 = load32_le(k + 8), i7 = load32_le(k + 12);
  const uint32_t i8 = load32_le(k + 16), i9 = load32_le(k + 20);
  const uint32_t i10 = load32_le(k + 24), i11 = load32_le(k + 28);
  const uint32_t i13 = load32_le(nc), i14 = load32_le(nc + 4);
  const uint32_t i15 = load32_le(nc + 8);
  size_t n = (size_t)len, base;
  uint32_t i12 = (uint32_t)counter;

  for (base = 0; base < n; base += 64, i12++) {
    uint32_t x0 = 0x61707865, x1 = 0x3320646e, x2 = 0x79622d32;
    uint32_t x3 = 0x6b206574, x4 = i4, x5 = i5, x6 = i6, x7 = i7;
    uint32_t x8 = i8, x9 = i9, x10 = i10, x11 = i11;
    uint32_t x12 = i12, x13 = i13, x14 = i14, x15 = i15;
    uint32_t ks[16];
    size_t rem = n - base, i, j;
    int r;

    for (r = 0; r < 10; r++) {
      QR(x0, x4, x8, x12); QR(x1, x5, x9, x13);
      QR(x2, x6, x10, x14); QR(x3, x7, x11, x15);
      QR(x0, x5, x10, x15); QR(x1, x6, x11, x12);
      QR(x2, x7, x8, x13); QR(x3, x4, x9, x14);
    }
    ks[0] = x0 + 0x61707865; ks[1] = x1 + 0x3320646e;
    ks[2] = x2 + 0x79622d32; ks[3] = x3 + 0x6b206574;
    ks[4] = x4 + i4; ks[5] = x5 + i5; ks[6] = x6 + i6; ks[7] = x7 + i7;
    ks[8] = x8 + i8; ks[9] = x9 + i9; ks[10] = x10 + i10;
    ks[11] = x11 + i11; ks[12] = x12 + i12; ks[13] = x13 + i13;
    ks[14] = x14 + i14; ks[15] = x15 + i15;
    for (i = 0; i < 16 && 4 * i + 4 <= rem; i++)
      store32_le(d + base + 4 * i, load32_le(s + base + 4 * i) ^ ks[i]);
    if (i < 16)
      for (j = 0; 4 * i + j < rem; j++)
        d[base + 4 * i + j] =
          s[base + 4 * i + j] ^ (unsigned char)(ks[i] >> (8 * j));
  }
  return Val_unit;
}

value sim_crypto_chacha20_xor_byte(value *argv, int argn)
{
  (void)argn;
  return sim_crypto_chacha20_xor(argv[0], Int32_val(argv[1]), argv[2],
                                 argv[3], Long_val(argv[4]), argv[5],
                                 Long_val(argv[6]));
}

/* --- SipHash-2-4 -------------------------------------------------------- */

#define SIPROUND                                                          \
  do {                                                                    \
    v0 += v1; v1 = rotl64(v1, 13) ^ v0; v0 = rotl64(v0, 32);              \
    v2 += v3; v3 = rotl64(v3, 16) ^ v2;                                   \
    v0 += v3; v3 = rotl64(v3, 21) ^ v0;                                   \
    v2 += v1; v1 = rotl64(v1, 17) ^ v2; v2 = rotl64(v2, 32);              \
  } while (0)

/* The MAC of the first [len] bytes of [data] under the key words [k0]
   and [k1]; the final message word carries [len]'s low byte on top. */
int64_t sim_crypto_siphash24_prefix(int64_t k0, int64_t k1, value data,
                                    intnat len)
{
  const unsigned char *p = Bytes_val(data);
  size_t n = (size_t)len, nwords = n / 8, w, j;
  uint64_t v0 = (uint64_t)k0 ^ 0x736f6d6570736575ULL;
  uint64_t v1 = (uint64_t)k1 ^ 0x646f72616e646f6dULL;
  uint64_t v2 = (uint64_t)k0 ^ 0x6c7967656e657261ULL;
  uint64_t v3 = (uint64_t)k1 ^ 0x7465646279746573ULL;
  uint64_t m, last = (uint64_t)n << 56;

  for (w = 0; w < nwords; w++) {
    m = load64_le(p + 8 * w);
    v3 ^= m;
    SIPROUND; SIPROUND;
    v0 ^= m;
  }
  for (j = 0; 8 * nwords + j < n; j++)
    last |= (uint64_t)p[8 * nwords + j] << (8 * j);
  v3 ^= last;
  SIPROUND; SIPROUND;
  v0 ^= last;
  v2 ^= 0xff;
  SIPROUND; SIPROUND; SIPROUND; SIPROUND;
  return (int64_t)(v0 ^ v1 ^ v2 ^ v3);
}

value sim_crypto_siphash24_prefix_byte(value k0, value k1, value data,
                                       value len)
{
  return caml_copy_int64(sim_crypto_siphash24_prefix(
    Int64_val(k0), Int64_val(k1), data, Long_val(len)));
}
