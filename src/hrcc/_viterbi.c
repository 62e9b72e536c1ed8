/* Batch soft-decision Viterbi decoder for the 16-state trellis, and the
 * channel's noise and arithmetic.
 *
 * Compiled and loaded by kernels.py; it must return exactly the bits of
 * kernels.viterbi_batch_np.  State s packs the last four inputs, newest in
 * bit 3, so destinations i and i + 8 (input 0 and 1) share the predecessors
 * 2i and 2i + 1.  Every generator has its D^0 and D^4 terms, so flipping the
 * input or the oldest register bit negates every branch output: the four
 * branches of a butterfly carry +m, -m, -m and +m for one metric m.  The
 * metric is summed in output order like the numpy kernel, and IEEE negation
 * is exact, so each candidate metric equals the numpy one (up to the sign of
 * a zero, which no comparison sees).  Build with -ffp-contract=off: a fused
 * multiply-add rounds once where numpy rounds twice.
 *
 * The decoder reads the soft values through a source map, one entry per
 * column of the mother code: source[c] is the column of the input row that
 * holds coded bit c, or -1 where puncturing deleted it, which reads as an
 * erasure (+0.0).  This folds depuncturing into the decoder's own reads.
 * kernels.py checks the map's bounds before it calls in.
 *
 * One body decodes a group of frames one per lane, with the same operations in
 * the same order in every lane: its select, a max with the odd candidate first,
 * picks what numpy's > picks, ties and signed zeros included.  The lanes of a
 * group are traced back side by side: at the vector widths every lane's state
 * sits in one 128-bit register, and one byte shuffle per step reads each lane's
 * decision byte.  Its text is written once and expanded at
 * three widths: eight lanes for AVX-512F and DQ, four for AVX2 and one lane of
 * plain double arithmetic.  hrcc_viterbi decides which width decodes which
 * frame: where the CPU has AVX-512F and DQ, every whole group of eight frames
 * runs on eight lanes; then, where it has AVX2, a whole group of four left over
 * runs on four; every other frame, the one to three left over or every frame on
 * other CPUs, runs on one lane, so a single block always does.  The vector
 * widths are compiled by a function attribute, not by a compiler flag, so the
 * library loads on any x86-64 CPU; hrcc_viterbi_lanes says how wide a group
 * this CPU runs.
 *
 * The library also holds a chain's encoder, hrcc_encode, which takes 8 trellis
 * steps per lookup of a 4096-entry table of the bits that the chain keeps of
 * them and writes those straight into the coded row, the channel, hrcc_channel,
 * which draws its own standard normals and applies them in one call, the message
 * draw, hrcc_bits, and each frame's bit-error count, hrcc_errors; each is
 * bit-identical to the numpy stages it replaces, and both draws leave the
 * generator as numpy's would.  Given a block code's table, hrcc_viterbi also
 * checks each decoded word.  The block code's LFSR, which gives the encoder's
 * parity and the decoder's check, runs eight frames side by side.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __x86_64__
#include <immintrin.h>
#endif

#define NSTATES 16
#define NEG_METRIC (-1.0e30)
#define WIDEST 8 /* lanes at the widest width, which the scratch buffer fits */

/* The statuses of hrcc_viterbi, hrcc_channel and hrcc_encode; kernels.py mirrors them. */
enum { HRCC_OK = 0, HRCC_NOT_BINARY = 1, HRCC_NOT_FINITE = 2, HRCC_NO_MEMORY = 3 };

/* The operands of a code that stay the same from call to call, which kernels.py fills
 * once per chain and once per call of a bare decode, and mirrors as _Code: one pointer
 * crosses where seven arguments would, each of which ctypes converts on every call.
 * source:      entries, n_out per trellis step, each -1 or a column of a width-value row;
 *              the decoder reads its soft rows through it, see hrcc_viterbi.
 * n_out:       2 or 3, the code rate's denominator; kernels.py rejects any other.
 * table:       NULL, or the block code's 256 remainders, see lfsr().
 * sym:         (8, n_out) outputs of the branch from state 2i under input 0, for the decoder.
 * kept:        the encoder's kept-bit table, 4096 entries.  source keeps the same columns in
 *              every group of 8 trellis steps, and entry h << 8 | x holds the bits of a group's
 *              mother-code columns that it keeps, in column order from bit 0, where the steps
 *              shift the inputs x, first in bit 7, into a register whose last 4 inputs were h,
 *              newest in bit 0.  source keeps columns in order, so these are the coded row's next
 *              bits.  Where it keeps them all, the entries are ConvCode.eight_steps' own.
 * count:       how many columns source keeps of each group of 8 steps.
 * k, n:        the message bits that the encoder reads, and the message and parity bits
 *              that the decoder checks with table. */
typedef struct {
    const int32_t *source;
    ptrdiff_t entries;
    ptrdiff_t width;
    int n_out;
    const uint64_t *table;
    const double *sym;
    const uint32_t *kept;
    int count;
    ptrdiff_t k;
    ptrdiff_t n;
} hrcc_code;

/* Each width's primitives, named by its lane count L, for the one body below: the vector
 * type; PD_L(op), op on it (set1, loadu, storeu, add, sub, mul and max); GT_L, greater-than as
 * a bitmask, bit l for lane l; NAN_L, nonzero if a lane is NaN; COLUMN_L, column s of the rows
 * row[0] to row[L - 1], one per lane; and, for the traceback, STATE_L, the type that holds every
 * lane's state, BACK_L(state, decisions), the states one step back, EMIT_L(at, state), each
 * lane's decoded bit, state >> 3, as the L bytes at at, and ROWS_L(decoded, steps, nsteps), the
 * rows of L frames, one per lane, from the nsteps * L bytes that EMIT_L wrote.  One lane is
 * plain double arithmetic, its max MAXPD's rule: the first operand only when it is strictly
 * greater, else the second; its traceback is one scalar step that writes its bit straight into
 * the frame's row, so ROWS_1 has nothing to do. */
#define VEC_1 double
#define PD_1(op) PD1_##op
#define PD1_set1(v) (v)
#define PD1_loadu(p) (*(p))
#define PD1_storeu(p, v) (*(p) = (v))
#define PD1_add(a, b) ((a) + (b))
#define PD1_sub(a, b) ((a) - (b))
#define PD1_mul(a, b) ((a) * (b))
#define PD1_max(a, b) ((a) > (b) ? (a) : (b))
#define GT_1(a, b) ((a) > (b))
#define NAN_1(v) isnan(v)
#define COLUMN_1(row, s) row[0][s]
#define STATE_1 unsigned
#define BACK_1(state, decisions) (((state) & 7) << 1 | ((decisions)[state] & 1))
#define EMIT_1(at, state) (*(at) = (uint8_t)((state) >> 3))
#define ROWS_1(decoded, steps, nsteps) ((void)0)

/* The body, written once and expanded for each width by DECODE_GROUPS(L, attr): decode##L
 * decodes nframes, a multiple of L, one frame per lane, with the width's primitives compiled
 * under the function attribute attr (empty for one lane).  lanes: L * nsteps * n_out doubles
 * of scratch that hold a group's soft values, column-major with the L frames interleaved,
 * and then, once the add-compare-select is done, the traceback's L bytes per step.
 * back: one byte per (step, state), bit l for lane l, which the traceback reads for all L
 * lanes at each step.  decode_groups##L calls it with a constant n_out for each code rate,
 * apart from hrcc_viterbi, which must not be compiled under attr.  Each returns 1 if a final
 * metric is not finite. */
#define DECODE_GROUPS(L, attr)                                                                  \
static inline __attribute__((always_inline, attr)) int                                          \
decode##L(const double *soft, ptrdiff_t nframes, ptrdiff_t in_width, const int32_t *source,     \
          ptrdiff_t nsteps, const int n_out, const double *sym, double *lanes, uint8_t *back,   \
          uint8_t *bits)                                                                        \
{                                                                                               \
    /* Branch outputs broadcast once; held in locals, they need no reload                       \
     * after each byte stored to back, which may alias sym. */                                  \
    VEC_##L out[NSTATES / 2][n_out];                                                            \
    for (int i = 0; i < NSTATES / 2; i++)                                                       \
        for (int j = 0; j < n_out; j++)                                                         \
            out[i][j] = PD_##L(set1)(sym[i * n_out + j]);                                       \
                                                                                                \
    int flagged = 0;                                                                            \
    for (ptrdiff_t first = 0; first < nframes; first += L) {                                    \
        const double *row[L];                                                                   \
        for (int l = 0; l < L; l++)                                                             \
            row[l] = soft + (first + l) * in_width;                                             \
        for (ptrdiff_t c = 0; c < nsteps * n_out; c++) {                                        \
            const int32_t s = source[c];                                                        \
            PD_##L(storeu)(lanes + L * c, s < 0 ? PD_##L(set1)(0.0) : COLUMN_##L(row, s));      \
        }                                                                                       \
                                                                                                \
        VEC_##L metrics[2][NSTATES];                                                            \
        VEC_##L *pm = metrics[0], *next = metrics[1];                                           \
        pm[0] = PD_##L(set1)(0.0);                                                              \
        for (int s = 1; s < NSTATES; s++)                                                       \
            pm[s] = PD_##L(set1)(NEG_METRIC);                                                   \
                                                                                                \
        for (ptrdiff_t t = 0; t < nsteps; t++) {                                                \
            const double *seg = lanes + L * n_out * t;                                          \
            uint8_t *decisions = back + NSTATES * t;                                            \
            _Pragma("GCC unroll 8")                                                             \
            for (int i = 0; i < NSTATES / 2; i++) {                                             \
                VEC_##L m = PD_##L(mul)(PD_##L(loadu)(seg), out[i][0]);                         \
                for (int j = 1; j < n_out; j++)                                                 \
                    m = PD_##L(add)(m, PD_##L(mul)(PD_##L(loadu)(seg + L * j), out[i][j]));     \
                const VEC_##L even = pm[2 * i], odd = pm[2 * i + 1];                            \
                const VEC_##L c0 = PD_##L(add)(even, m), c1 = PD_##L(sub)(odd, m);              \
                const VEC_##L d0 = PD_##L(sub)(even, m), d1 = PD_##L(add)(odd, m);              \
                /* Ordered greater-than: false on ties, so ties keep the even predecessor,      \
                 * as in the numpy kernel.  max keeps c1 only when it is strictly greater,      \
                 * else c0, ties, +-0 and NaN alike: what numpy's where(c1 > c0, c1, c0)        \
                 * keeps.  A NaN comes only from a value that is not finite or from sums        \
                 * that overflowed, and it flags its frame. */                                  \
                next[i] = PD_##L(max)(c1, c0);                                                  \
                next[i + 8] = PD_##L(max)(d1, d0);                                              \
                decisions[i] = (uint8_t)GT_##L(c1, c0);                                         \
                decisions[i + 8] = (uint8_t)GT_##L(d1, d0);                                     \
            }                                                                                   \
            VEC_##L *swap = pm;                                                                 \
            pm = next;                                                                          \
            next = swap;                                                                        \
        }                                                                                       \
        const VEC_##L zero = PD_##L(sub)(pm[0], pm[0]); /* NaN where pm[0] is not finite */     \
        flagged |= NAN_##L(zero) != 0;                                                          \
                                                                                                \
        /* The L lanes step back together, every lane's state in one STATE_L; one               \
         * lane writes its row directly, and L lanes write their bytes to the free              \
         * lane buffer, which ROWS_L turns into rows. */                                        \
        uint8_t *decoded = bits + first * nsteps;                                               \
        uint8_t *steps = L == 1 ? decoded : (uint8_t *)lanes;                                   \
        STATE_##L state = {0};                                                                  \
        for (ptrdiff_t t = nsteps - 1; t >= 0; t--) {                                           \
            EMIT_##L(steps + L * t, state);                                                     \
            state = BACK_##L(state, back + NSTATES * t);                                        \
        }                                                                                       \
        ROWS_##L(decoded, steps, nsteps);                                                       \
    }                                                                                           \
    return flagged;                                                                             \
}                                                                                               \
                                                                                                \
static __attribute__((attr)) int                                                                \
decode_groups##L(const double *soft, ptrdiff_t nframes, ptrdiff_t in_width,                     \
                 const int32_t *source, ptrdiff_t nsteps, int n_out, const double *sym,         \
                 double *lanes, uint8_t *back, uint8_t *bits)                                   \
{                                                                                               \
    return n_out == 2                                                                           \
        ? decode##L(soft, nframes, in_width, source, nsteps, 2, sym, lanes, back, bits)         \
        : decode##L(soft, nframes, in_width, source, nsteps, 3, sym, lanes, back, bits);        \
}

DECODE_GROUPS(1, )

#ifdef __x86_64__

/* The vector widths' traceback holds every lane's state in one 128-bit register, lane l's in
 * byte l.  Each lane's state one step back: one byte shuffle gives each lane the decision byte
 * of its state, whose own bit, l for lane l, it shifts in. */
static inline __attribute__((always_inline, target("avx2"))) __m128i
back_step(__m128i state, const uint8_t *decisions)
{
    const __m128i lane_bits = _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m128i chosen = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)decisions), state);
    const __m128i bit = _mm_min_epu8(_mm_and_si128(chosen, lane_bits), _mm_set1_epi8(1));
    const __m128i low = _mm_and_si128(state, _mm_set1_epi8(7));
    return _mm_or_si128(_mm_add_epi8(low, low), bit);
}

/* Each lane's decoded bit, state >> 3, as the L bytes at at, for L = 4 or 8 lanes. */
static inline __attribute__((always_inline, target("avx2"))) void
emit(uint8_t *at, __m128i state, const int L)
{
    const __m128i bits = _mm_and_si128(_mm_srli_epi16(state, 3), _mm_set1_epi8(1));
    if (L == 8) {
        _mm_storel_epi64((__m128i *)at, bits);
    } else {
        const int32_t four = _mm_cvtsi128_si32(bits);
        memcpy(at, &four, sizeof four);
    }
}

/* The rows of L = 4 or 8 lanes, lane l's at decoded + l * nsteps, from the bytes that emit
 * wrote, L per step: 8 steps at a time, where byte shuffles and unpacks gather each lane's 8
 * bytes, two lanes to a register, then the steps left over one by one. */
static inline __attribute__((always_inline, target("avx2"))) void
lane_rows(uint8_t *decoded, const uint8_t *steps, ptrdiff_t nsteps, const int L)
{
    ptrdiff_t t = 0;
    for (; t + 8 <= nsteps; t += 8) {
        const __m128i *at = (const __m128i *)(steps + L * t);
        __m128i pairs[4]; /* lanes 2i and 2i + 1 */
        if (L == 4) { /* each 16 bytes to four lanes' four steps */
            const __m128i fours = _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11,
                                                15);
            const __m128i a = _mm_shuffle_epi8(_mm_loadu_si128(at), fours);
            const __m128i b = _mm_shuffle_epi8(_mm_loadu_si128(at + 1), fours);
            pairs[0] = _mm_unpacklo_epi32(a, b);
            pairs[1] = _mm_unpackhi_epi32(a, b);
        } else { /* each 16 bytes to eight lanes' two steps, then four, then eight */
            const __m128i twos = _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7,
                                               15);
            __m128i x[4];
            for (int i = 0; i < 4; i++)
                x[i] = _mm_shuffle_epi8(_mm_loadu_si128(at + i), twos);
            for (int h = 0; h < 2; h++) { /* lanes 4h to 4h + 3 */
                const __m128i head = h ? _mm_unpackhi_epi16(x[0], x[1])
                                       : _mm_unpacklo_epi16(x[0], x[1]);
                const __m128i tail = h ? _mm_unpackhi_epi16(x[2], x[3])
                                       : _mm_unpacklo_epi16(x[2], x[3]);
                pairs[2 * h] = _mm_unpacklo_epi32(head, tail);
                pairs[2 * h + 1] = _mm_unpackhi_epi32(head, tail);
            }
        }
        for (int i = 0; i < L / 2; i++) {
            uint8_t *lane = decoded + 2 * i * nsteps + t;
            _mm_storel_epi64((__m128i *)lane, pairs[i]);
            _mm_storel_epi64((__m128i *)(lane + nsteps), _mm_unpackhi_epi64(pairs[i], pairs[i]));
        }
    }
    for (; t < nsteps; t++)
        for (int l = 0; l < L; l++)
            decoded[l * nsteps + t] = steps[L * t + l];
}

#define VEC_4 __m256d
#define PD_4(op) _mm256_##op##_pd
#define GT_4(a, b) _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ))
#define NAN_4(v) _mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q))
#define COLUMN_4(row, s) _mm256_set_pd(row[3][s], row[2][s], row[1][s], row[0][s])
#define STATE_4 __m128i
#define BACK_4 back_step
#define EMIT_4(at, state) emit(at, state, 4)
#define ROWS_4(decoded, steps, nsteps) lane_rows(decoded, steps, nsteps, 4)

/* Eight lanes compile for AVX-512DQ too, whose KMOVB stores a bitmask straight from its mask
 * register, where AVX-512F alone moves it through a general register first: 7.6-10.4% of the
 * best of six 512-frame decodes on a C harness, 1-2% of their medians. */
#define VEC_8 __m512d
#define PD_8(op) _mm512_##op##_pd
#define GT_8(a, b) _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ)
#define NAN_8(v) _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q)
#define COLUMN_8(row, s) _mm512_set_pd(row[7][s], row[6][s], row[5][s], row[4][s], \
                                       row[3][s], row[2][s], row[1][s], row[0][s])
#define STATE_8 __m128i
#define BACK_8 back_step
#define EMIT_8(at, state) emit(at, state, 8)
#define ROWS_8(decoded, steps, nsteps) lane_rows(decoded, steps, nsteps, 8)

DECODE_GROUPS(4, target("avx2"))
DECODE_GROUPS(8, target("avx512f,avx512dq"))

#endif

/* 8 bytes as a little-endian word, and back, on either byte order. */
static inline uint64_t load8(const uint8_t *p)
{
    uint64_t w;
    memcpy(&w, p, sizeof w);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

static inline void store8(uint8_t *p, uint64_t w)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    memcpy(p, &w, sizeof w);
}

/* The bytes of w, each 0 or 1, as the bits of one byte, byte 0 in bit 7: the multiplier's
 * term 2^(9m) moves byte 7 - m to bit 63 - (7 - m), and no other term reaches the top byte
 * or carries into it. */
static inline unsigned pack8(uint64_t w)
{
    return (unsigned)(w * 0x8040201008040201u >> 56);
}

/* The 8 bits of x as 8 bytes of 0 or 1, bit b in byte b: x copied to every byte, bit b of
 * byte b kept, and a nonzero byte carried into its own bit 7. */
static inline uint64_t expand8(unsigned x)
{
    const uint64_t kept = x * 0x0101010101010101u & 0x8040201008040201u;
    return (kept + 0x7f7f7f7f7f7f7f7fu) >> 7 & 0x0101010101010101u;
}

/* The remainders of L rows, row l at rows + l * stride, for L = 1 or 8: rem[l] is row l(D) * D^r
 * modulo the block code's generator, for its n bits read first bit highest, at the top of a
 * uint64.  One lookup per byte of bits in table[v], the remainder of v(D) * D^r stored the same
 * way; each byte is 8 bits packed by pack8, so every bit must be 0 or 1.  The n % 8 leading bits
 * make a first byte as if led by zeros, which change no remainder.  Eight rows run eight
 * independent chains of lookups side by side, so that each hides the others' latency. */
static inline __attribute__((always_inline)) void
lfsr(const uint8_t *restrict rows, ptrdiff_t stride, ptrdiff_t n, const uint64_t *restrict table,
     const int L, uint64_t *restrict rem)
{
    const ptrdiff_t lead = n % 8;
    for (int l = 0; l < L; l++) {
        unsigned byte = 0;
        for (ptrdiff_t i = 0; i < lead; i++)
            byte = byte << 1 | rows[l * stride + i];
        rem[l] = table[byte & 255];
    }
    for (ptrdiff_t i = lead; i < n; i += 8) {
        _Pragma("GCC unroll 8")
        for (int l = 0; l < L; l++)
            rem[l] = rem[l] << 8 ^ table[(rem[l] >> 56 ^ pack8(load8(rows + l * stride + i))) & 255];
    }
}

/* lfsr() of the next rows of a batch, of which left remain: eight where at least eight do,
 * else one, so that a single block keeps the one-row loop.  Returns how many. */
static inline __attribute__((always_inline)) int
remainders(const uint8_t *rows, ptrdiff_t stride, ptrdiff_t left, ptrdiff_t n,
           const uint64_t *table, uint64_t rem[8])
{
    if (left >= 8) {
        lfsr(rows, stride, n, table, 8, rem);
        return 8;
    }
    lfsr(rows, stride, n, table, 1, rem);
    return 1;
}

/* Frames decoded at once by the widest body this CPU runs. */
int hrcc_viterbi_lanes(void)
{
#ifdef __x86_64__
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
        return 8;
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 1;
}

/* soft:   (nframes, code->width) row-major soft values, +1 meaning coded bit 0, read
 *         through code->source; see above.
 * bits:   (nframes, code->entries / code->n_out) decoded inputs, tail included.
 * ok:     with code->table, ok[f] = 1 if lfsr() of the first code->n bits of row f is 0,
 *         which, as every generator has a constant term, holds exactly when that word's
 *         parity matches; unused without it.
 * Returns HRCC_NO_MEMORY, else HRCC_NOT_FINITE if a frame's final path metric is not
 * finite (a value that the map reads is not, or the sums overflowed), else HRCC_OK.
 */
int hrcc_viterbi(const hrcc_code *code, const double *soft, ptrdiff_t nframes, uint8_t *bits,
                 uint8_t *ok)
{
    const ptrdiff_t in_width = code->width, n = code->n;
    const int32_t *source = code->source;
    const int n_out = code->n_out;
    const double *sym = code->sym;
    const uint64_t *table = code->table;
    const ptrdiff_t nsteps = code->entries / n_out;
    if (nframes == 0 || nsteps == 0)
        return HRCC_OK;
    /* lanes, then back, NSTATES bytes per step at every width; both start on a 64-byte
     * line, so that no vector load splits one. */
    const size_t lane_bytes = WIDEST * nsteps * n_out * sizeof(double);
    double *lanes = aligned_alloc(64, lane_bytes + (NSTATES * nsteps + 63) / 64 * 64);
    if (lanes == NULL)
        return HRCC_NO_MEMORY;
    uint8_t *back = (uint8_t *)lanes + lane_bytes;
    ptrdiff_t done = 0; /* frames decoded, from the first */
    int flagged = 0;
#ifdef __x86_64__
    const int widest = hrcc_viterbi_lanes();
    if (widest == 8) {
        done = nframes - nframes % 8;
        flagged = decode_groups8(soft, done, in_width, source, nsteps, n_out, sym, lanes, back,
                                 bits);
    }
    if (widest >= 4) {
        const ptrdiff_t group = (nframes - done) / 4 * 4;
        flagged |= decode_groups4(soft + done * in_width, group, in_width, source, nsteps, n_out,
                                  sym, lanes, back, bits + done * nsteps);
        done += group;
    }
#endif
    flagged |= decode_groups1(soft + done * in_width, nframes - done, in_width, source, nsteps,
                              n_out, sym, lanes, back, bits + done * nsteps);
    free(lanes);
    if (table != NULL)
        for (ptrdiff_t f = 0; f < nframes;) {
            uint64_t rem[8];
            const int rows = remainders(bits + f * nsteps, nsteps, nframes - f, n, table, rem);
            for (int l = 0; l < rows; l++, f++)
                ok[f] = rem[l] == 0;
        }
    return flagged ? HRCC_NOT_FINITE : HRCC_OK;
}

/* counts[f]: how many of the k bytes of row f of decoded, at decoded + f * decoded_stride, differ
 * from those of row f of sent, at sent + f * sent_stride; 8 bytes at a time, each byte that differs
 * setting its bit 7. */
void hrcc_errors(const uint8_t *decoded, ptrdiff_t decoded_stride, const uint8_t *sent,
                 ptrdiff_t sent_stride, ptrdiff_t nframes, ptrdiff_t k, ptrdiff_t *counts)
{
    const uint64_t low = 0x7f7f7f7f7f7f7f7fu;
    for (ptrdiff_t f = 0; f < nframes; f++, decoded += decoded_stride, sent += sent_stride) {
        ptrdiff_t count = 0, i = 0;
        for (; i + 8 <= k; i += 8) {
            const uint64_t x = load8(decoded + i) ^ load8(sent + i);
            const uint64_t high = (((x & low) + low) | x) & ~low;
            count += (ptrdiff_t)((high >> 7) * 0x0101010101010101u >> 56);
        }
        for (; i < k; i++)
            count += decoded[i] != sent[i];
        counts[f] = count;
    }
}

/* The next 8 inputs x, first in bit 7, shifted into the 12-input window; its entry in kept holds
 * the group's count kept bits, which are written straight into the coded row at at as bytes of 0
 * or 1, 8 at a time.  The last 8 may run up to 8 bytes past the group's count, and the last
 * group's stores up to 24 past the row's end, where the next group, the next row or the output's
 * 24 spare bytes go.  Returns the end of the group's bits. */
static inline __attribute__((always_inline)) uint8_t *
shift8(const uint32_t *restrict kept, int count, unsigned *window, unsigned x, uint8_t *at)
{
    *window = (*window << 8 | x) & 4095;
    const uint32_t bits = kept[*window];
    store8(at, expand8(bits & 255));
    if (count > 8) {
        store8(at + 8, expand8(bits >> 8 & 255));
        if (count > 16)
            store8(at + 16, expand8(bits >> 16 & 255));
    }
    return at + count;
}

/* One message row of k bits, its parity first bit highest and then zeros, the tail, through the
 * register 8 inputs at a time into the coded row at at, nsteps inputs in all; returns the OR of
 * the message's words. */
static inline __attribute__((always_inline)) uint64_t
encode_row(const uint32_t *restrict kept, int count, const uint8_t *msg, ptrdiff_t k,
           ptrdiff_t nsteps, uint64_t parity, uint8_t *at)
{
    unsigned window = 0;
    uint64_t seen = 0;
    ptrdiff_t t = 0;
    for (; t + 8 <= k; t += 8) {
        const uint64_t w = load8(msg + t);
        seen |= w; /* a value above 1 fails the call */
        at = shift8(kept, count, &window, pack8(w), at);
    }
    /* The message's last k % 8 inputs lead the parity into the next group. */
    const int lead = (int)(k - t);
    unsigned x = 0;
    for (; t < k; t++) {
        seen |= msg[t];
        x = x << 1 | (msg[t] & 1);
    }
    x = x << (8 - lead) | (unsigned)(parity >> (56 + lead));
    parity <<= 8 - lead;
    for (t -= lead; t < nsteps; t += 8) {
        at = shift8(kept, count, &window, x, at);
        x = (unsigned)(parity >> 56);
        parity <<= 8;
    }
    return seen;
}

/* msgs: (nframes, code->k) row-major message bits; code->table gives their parity, eight rows
 * at a time where eight are left, and code->kept each group's kept bits: out is (nframes,
 * code->width) coded bits, followed by 24 spare bytes that the last row may write.  Returns
 * HRCC_NOT_BINARY if a message value is not 0 or 1, else HRCC_OK. */
int hrcc_encode(const hrcc_code *code, const uint8_t *msgs, ptrdiff_t nframes, uint8_t *out)
{
    const ptrdiff_t k = code->k, width = code->width, nsteps = code->entries / code->n_out;
    const uint32_t *kept = code->kept;
    const int count = code->count;
    const uint64_t *table = code->table;
    uint64_t seen = 0;
    for (ptrdiff_t f = 0; f < nframes;) {
        uint64_t parity[8];
        const int rows = remainders(msgs + f * k, k, nframes - f, k, table, parity);
        for (int l = 0; l < rows; l++, f++)
            seen |= encode_row(kept, count, msgs + f * k, k, nsteps, parity[l], out + f * width);
    }
    return seen & 0xfefefefefefefefe ? HRCC_NOT_BINARY : HRCC_OK;
}

/* draw_row() and tail() are numpy's standard normal draw (random_standard_normal
 * in numpy/random/src/distributions/distributions.c, the Marsaglia-Tsang
 * ziggurat, J. Stat. Softw. 5(8), 2000) with its 256-strip tables, which are
 * copied bit for bit from numpy 2.4.6's libnpyrandom.a.  numpy's random module
 * is dual-licensed under the University of Illinois/NCSA licence and the
 * 3-Clause BSD licence; this copy is used under the latter, whose notice follows:
 *
 * Copyright (c) 2019 Kevin Sheppard. All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are met:
 *
 * 1. Redistributions of source code must retain the above copyright notice,
 *    this list of conditions and the following disclaimer.
 *
 * 2. Redistributions in binary form must reproduce the above copyright notice,
 *    this list of conditions and the following disclaimer in the documentation
 *    and/or other materials provided with the distribution.
 *
 * 3. Neither the name of the copyright holder nor the names of its contributors
 *    may be used to endorse or promote products derived from this software
 *    without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
 * AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
 * IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
 * ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR CONTRIBUTORS BE
 * LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
 * CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
 * SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
 * INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
 * CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
 * ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF
 * THE POSSIBILITY OF SUCH DAMAGE.
 */

static const uint64_t ki_double[256] = {
    0x000EF33D8025EF6A, 0x0000000000000000, 0x000C08BE98FBC6A8, 0x000DA354FABD8142,
    0x000E51F67EC1EEEA, 0x000EB255E9D3F77E, 0x000EEF4B817ECAB9, 0x000F19470AFA44AA,
    0x000F37ED61FFCB18, 0x000F4F469561255C, 0x000F61A5E41BA396, 0x000F707A755396A4,
    0x000F7CB2EC28449A, 0x000F86F10C6357D3, 0x000F8FA6578325DE, 0x000F9724C74DD0DA,
    0x000F9DA907DBF509, 0x000FA360F581FA74, 0x000FA86FDE5B4BF8, 0x000FACF160D354DC,
    0x000FB0FB6718B90F, 0x000FB49F8D5374C6, 0x000FB7EC2366FE77, 0x000FBAECE9A1E50E,
    0x000FBDAB9D040BED, 0x000FC03060FF6C57, 0x000FC2821037A248, 0x000FC4A67AE25BD1,
    0x000FC6A2977AEE31, 0x000FC87AA92896A4, 0x000FCA325E4BDE85, 0x000FCBCCE902231A,
    0x000FCD4D12F839C4, 0x000FCEB54D8FEC99, 0x000FD007BF1DC930, 0x000FD1464DD6C4E6,
    0x000FD272A8E2F450, 0x000FD38E4FF0C91E, 0x000FD49A9990B478, 0x000FD598B8920F53,
    0x000FD689C08E99EC, 0x000FD76EA9C8E832, 0x000FD848547B08E8, 0x000FD9178BAD2C8C,
    0x000FD9DD07A7ADD2, 0x000FDA9970105E8C, 0x000FDB4D5DC02E20, 0x000FDBF95C5BFCD0,
    0x000FDC9DEBB99A7D, 0x000FDD3B8118729D, 0x000FDDD288342F90, 0x000FDE6364369F64,
    0x000FDEEE708D514E, 0x000FDF7401A6B42E, 0x000FDFF46599ED40, 0x000FE06FE4BC24F2,
    0x000FE0E6C225A258, 0x000FE1593C28B84C, 0x000FE1C78CBC3F99, 0x000FE231E9DB1CAA,
    0x000FE29885DA1B91, 0x000FE2FB8FB54186, 0x000FE35B33558D4A, 0x000FE3B799D0002A,
    0x000FE410E99EAD7F, 0x000FE46746D47734, 0x000FE4BAD34C095C, 0x000FE50BAED29524,
    0x000FE559F74EBC78, 0x000FE5A5C8E41212, 0x000FE5EF3E138689, 0x000FE6366FD91078,
    0x000FE67B75C6D578, 0x000FE6BE661E11AA, 0x000FE6FF55E5F4F2, 0x000FE73E5900A702,
    0x000FE77B823E9E39, 0x000FE7B6E37070A2, 0x000FE7F08D774243, 0x000FE8289053F08C,
    0x000FE85EFB35173A, 0x000FE893DC840864, 0x000FE8C741F0CEBC, 0x000FE8F9387D4EF6,
    0x000FE929CC879B1D, 0x000FE95909D388EA, 0x000FE986FB939AA2, 0x000FE9B3AC714866,
    0x000FE9DF2694B6D5, 0x000FEA0973ABE67C, 0x000FEA329CF166A4, 0x000FEA5AAB32952C,
    0x000FEA81A6D5741A, 0x000FEAA797DE1CF0, 0x000FEACC85F3D920, 0x000FEAF07865E63C,
    0x000FEB13762FEC13, 0x000FEB3585FE2A4A, 0x000FEB56AE3162B4, 0x000FEB76F4E284FA,
    0x000FEB965FE62014, 0x000FEBB4F4CF9D7C, 0x000FEBD2B8F449D0, 0x000FEBEFB16E2E3E,
    0x000FEC0BE31EBDE8, 0x000FEC2752B15A15, 0x000FEC42049DAFD3, 0x000FEC5BFD29F196,
    0x000FEC75406CEEF4, 0x000FEC8DD2500CB4, 0x000FECA5B6911F12, 0x000FECBCF0C427FE,
    0x000FECD38454FB15, 0x000FECE97488C8B3, 0x000FECFEC47F91B7, 0x000FED1377358528,
    0x000FED278F844903, 0x000FED3B10242F4C, 0x000FED4DFBAD586E, 0x000FED605498C3DD,
    0x000FED721D414FE8, 0x000FED8357E4A982, 0x000FED9406A42CC8, 0x000FEDA42B85B704,
    0x000FEDB3C8746AB4, 0x000FEDC2DF416652, 0x000FEDD171A46E52, 0x000FEDDF813C8AD3,
    0x000FEDED0F909980, 0x000FEDFA1E0FD414, 0x000FEE06AE124BC4, 0x000FEE12C0D95A06,
    0x000FEE1E579006E0, 0x000FEE29734B6524, 0x000FEE34150AE4BC, 0x000FEE3E3DB89B3C,
    0x000FEE47EE2982F4, 0x000FEE51271DB086, 0x000FEE59E9407F41, 0x000FEE623528B42E,
    0x000FEE6A0B5897F1, 0x000FEE716C3E077A, 0x000FEE7858327B82, 0x000FEE7ECF7B06BA,
    0x000FEE84D2484AB2, 0x000FEE8A60B66343, 0x000FEE8F7ACCC851, 0x000FEE94207E25DA,
    0x000FEE9851A829EA, 0x000FEE9C0E13485C, 0x000FEE9F557273F4, 0x000FEEA22762CCAE,
    0x000FEEA4836B42AC, 0x000FEEA668FC2D71, 0x000FEEA7D76ED6FA, 0x000FEEA8CE04FA0A,
    0x000FEEA94BE8333B, 0x000FEEA950296410, 0x000FEEA8D9C0075E, 0x000FEEA7E7897654,
    0x000FEEA678481D24, 0x000FEEA48AA29E83, 0x000FEEA21D22E4DA, 0x000FEE9F2E352024,
    0x000FEE9BBC26AF2E, 0x000FEE97C524F2E4, 0x000FEE93473C0A3A, 0x000FEE8E40557516,
    0x000FEE88AE369C7A, 0x000FEE828E7F3DFD, 0x000FEE7BDEA7B888, 0x000FEE749BFF37FF,
    0x000FEE6CC3A9BD5E, 0x000FEE64529E007E, 0x000FEE5B45A32888, 0x000FEE51994E57B6,
    0x000FEE474A0006CF, 0x000FEE3C53E12C50, 0x000FEE30B2E02AD8, 0x000FEE2462AD8205,
    0x000FEE175EB83C5A, 0x000FEE09A22A1447, 0x000FEDFB27E349CC, 0x000FEDEBEA76216C,
    0x000FEDDBE422047E, 0x000FEDCB0ECE39D3, 0x000FEDB964042CF4, 0x000FEDA6DCE938C9,
    0x000FED937237E98D, 0x000FED7F1C38A836, 0x000FED69D2B9C02B, 0x000FED538D06AE00,
    0x000FED3C41DEA422, 0x000FED23E76A2FD8, 0x000FED0A732FE644, 0x000FECEFDA07FE34,
    0x000FECD4100EB7B8, 0x000FECB708956EB4, 0x000FEC98B61230C1, 0x000FEC790A0DA978,
    0x000FEC57F50F31FE, 0x000FEC356686C962, 0x000FEC114CB4B335, 0x000FEBEB948E6FD0,
    0x000FEBC429A0B692, 0x000FEB9AF5EE0CDC, 0x000FEB6FE1C98542, 0x000FEB42D3AD1F9E,
    0x000FEB13B00B2D4B, 0x000FEAE2591A02E9, 0x000FEAAEAE992257, 0x000FEA788D8EE326,
    0x000FEA3FCFFD73E5, 0x000FEA044C8DD9F6, 0x000FE9C5D62F563B, 0x000FE9843BA947A4,
    0x000FE93F471D4728, 0x000FE8F6BD76C5D6, 0x000FE8AA5DC4E8E6, 0x000FE859E07AB1EA,
    0x000FE804F690A940, 0x000FE7AB488233C0, 0x000FE74C751F6AA5, 0x000FE6E8102AA202,
    0x000FE67DA0B6ABD8, 0x000FE60C9F38307E, 0x000FE5947338F742, 0x000FE51470977280,
    0x000FE48BD436F458, 0x000FE3F9BFFD1E37, 0x000FE35D35EEB19C, 0x000FE2B5122FE4FE,
    0x000FE20003995557, 0x000FE13C82788314, 0x000FE068C4EE67B0, 0x000FDF82B02B71AA,
    0x000FDE87C57EFEAA, 0x000FDD7509C63BFD, 0x000FDC46E529BF13, 0x000FDAF8F82E0282,
    0x000FD985E1B2BA75, 0x000FD7E6EF48CF04, 0x000FD613ADBD650B, 0x000FD40149E2F012,
    0x000FD1A1A7B4C7AC, 0x000FCEE204761F9E, 0x000FCBA8D85E11B2, 0x000FC7D26ECD2D22,
    0x000FC32B2F1E22ED, 0x000FBD6581C0B83A, 0x000FB606C4005434, 0x000FAC40582A2874,
    0x000F9E971E014598, 0x000F89FA48A41DFC, 0x000F66C5F7F0302C, 0x000F1A5A4B331C4A
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10
};

#define ZIGGURAT_NOR_R 3.6541528853610087963519472518
#define ZIGGURAT_NOR_INV_R 0.27366123732975827203338247596

/* numpy's bitgen_t (numpy/random/bitgen.h): the struct whose address
 * BitGenerator.ctypes.bit_generator holds. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* The tail beyond r, for a draw r of strip 0 that failed the fast test: numpy's
 * loop over pairs of doubles; 1 - U avoids log(0). */
static double tail(const bitgen_t *g, uint64_t rabs)
{
    for (;;) {
        const double xx = -ZIGGURAT_NOR_INV_R * log1p(-g->next_double(g->state));
        const double yy = -log1p(-g->next_double(g->state));
        if (yy + yy > xx * xx)
            return (rabs >> 8) & 0x1 ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
    }
}

/* A row of width standard normals, by numpy's steps in numpy's order, so that
 * the generator advances as under numpy's fill.  Each pass of the loop is one
 * try of numpy's: a 64-bit draw, whose low byte picks a strip and whose value
 * x is kept if it passes the fast test, else the tail's value (strip 0) or, if
 * the wedge test with the next double accepts it, x.  Two changes, neither to a
 * value or a draw:
 * - numpy negates x on bit 8 of the draw with a branch, which a random bit
 *   mispredicts half the time; here that bit is XORed into x's sign bit.
 * - numpy branches on the wedge test, which waits on exp() and mispredicts
 *   about half the time; here x is stored either way and the count of normals
 *   grows by the test's outcome.  A try that the wedge rejects has taken its
 *   two draws, and the next try draws afresh, as numpy's loop does. */
static void draw_row(const bitgen_t *g, double *normals, ptrdiff_t width)
{
    for (ptrdiff_t n = 0; n < width;) {
        uint64_t r = g->next_uint64(g->state);
        const int idx = r & 0xff;
        r >>= 8;
        const uint64_t rabs = (r >> 1) & 0x000fffffffffffff;
        double x = (double)(int64_t)rabs * wi_double[idx]; /* rabs < 2^52: exact */
        uint64_t x_bits;
        memcpy(&x_bits, &x, sizeof x);
        x_bits ^= r << 63;
        memcpy(&x, &x_bits, sizeof x);
        normals[n] = x;
        if (rabs < ki_double[idx])
            n++; /* 98.5% of tries */
        else if (idx == 0)
            normals[n++] = tail(g, rabs);
        else
            n += (fi_double[idx - 1] - fi_double[idx]) * g->next_double(g->state) + fi_double[idx]
                 < exp(-0.5 * x * x);
    }
}

/* 1 if each of the n bytes at bits is 0 or 1, read eight at a time. */
static int binary(const uint8_t *bits, ptrdiff_t n)
{
    uint64_t seen = 0;
    ptrdiff_t i = 0;
    for (uint64_t w; i + 8 <= n; i += 8) {
        memcpy(&w, bits + i, sizeof w);
        seen |= w;
    }
    for (; i < n; i++)
        seen |= bits[i];
    return (seen & 0xfefefefefefefefe) == 0;
}

/* Two doubles, one SSE2 register on any x86-64 CPU; each lane runs the scalar
 * operations in their order, and IEEE division is correctly rounded, so a lane
 * gets the scalar code's double. */
typedef double double2 __attribute__((vector_size(16)));

/* kernels.channel_np's numpy passes, in their order, on normals z and bits b. */
static inline double2 channel2(double2 z, double2 b, double sigma, double power)
{
    double2 v = z * sigma;
    v += 1.0 - 2.0 * b;
    v *= 2.0;
    return v / power;
}

/* kernels.channel_np in one loop: bitgen, a numpy bitgen_t whose lock the caller
 * holds, draws each row's width standard normals in order, as numpy's fill would,
 * into one scratch row; then column j of out, (nframes, width), gets bit j of its
 * row and the normal drawn at column columns[j], by numpy's passes in their order,
 * two columns per division and the last one of an odd width alone.  Returns
 * HRCC_NOT_BINARY, before anything is drawn, if a bit is not 0 or 1, else
 * HRCC_NO_MEMORY or HRCC_OK.  No branch on a bit: random bits mispredict. */
int hrcc_channel(void *bitgen, double *out, ptrdiff_t nframes, ptrdiff_t width,
                 const uint8_t *bits, const int32_t *columns, double sigma)
{
    const double power = sigma * sigma; /* kernels.channel_np's sigma * sigma */
    if (!binary(bits, nframes * width))
        return HRCC_NOT_BINARY;
    const bitgen_t g = *(const bitgen_t *)bitgen;
    double *normals = malloc(width * sizeof(double));
    if (normals == NULL)
        return nframes && width ? HRCC_NO_MEMORY : HRCC_OK;
    for (ptrdiff_t f = 0; f < nframes; f++, out += width, bits += width) {
        draw_row(&g, normals, width);
        ptrdiff_t j = 0;
        for (; j + 2 <= width; j += 2) {
            const double2 v = channel2((double2){normals[columns[j]], normals[columns[j + 1]]},
                                       (double2){bits[j], bits[j + 1]}, sigma, power);
            memcpy(out + j, &v, sizeof v);
        }
        if (j < width)
            out[j] = channel2((double2){normals[columns[j]]}, (double2){bits[j]}, sigma, power)[0];
    }
    free(normals);
    return HRCC_OK;
}

/* numpy's Generator.integers(0, 2, n, np.uint8) (random_bounded_uint8_fill in
 * distributions.c) into out, through bitgen, a numpy bitgen_t whose lock the
 * caller holds.  For a range of two values, Lemire's method on buffered bytes
 * never rejects (its threshold, (255 - 1) % 2, is 0), so each bit is bit 7 of
 * one byte of successive next_uint32 draws, low byte first.  A call starts
 * with an empty buffer, so a partial last word's unused bytes are dropped, as
 * numpy drops them; a generator's own pending 32-bit half stays its own. */
void hrcc_bits(void *bitgen, uint8_t *out, ptrdiff_t n)
{
    const bitgen_t g = *(const bitgen_t *)bitgen;
    ptrdiff_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const uint32_t w = g.next_uint32(g.state) >> 7 & 0x01010101u;
        out[i] = (uint8_t)w;
        out[i + 1] = (uint8_t)(w >> 8);
        out[i + 2] = (uint8_t)(w >> 16);
        out[i + 3] = (uint8_t)(w >> 24);
    }
    if (i < n)
        for (uint32_t w = g.next_uint32(g.state) >> 7; i < n; i++, w >>= 8)
            out[i] = w & 1;
}
