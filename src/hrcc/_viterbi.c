/* Batch soft-decision Viterbi decoder for the 16-state trellis.
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
 * hrcc_viterbi decides which body decodes which frame.  Where the CPU has
 * AVX2, whole groups of four frames run on the AVX2 body, one frame per lane
 * of a vector, with the same operations in the same order per lane as the
 * scalar body.  Every other frame, the one to three left over or every frame
 * on other CPUs, runs on the scalar body.  The AVX2 body is compiled by a
 * function attribute, not by a compiler flag, so the library loads on any
 * x86-64 CPU; hrcc_viterbi_lanes says whether this CPU runs it.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#ifdef __x86_64__
#include <immintrin.h>
#endif

#define NSTATES 16
#define NEG_METRIC (-1.0e30)
#define LANES 4

/* The scalar body for one code rate; always inlined, so that each call
 * below compiles with a constant n_out and a fully unrolled butterfly loop.
 * back: one word of decision bits per step. */
static inline __attribute__((always_inline)) void
decode1(const double *soft, ptrdiff_t nframes, ptrdiff_t in_width, const int32_t *source,
        ptrdiff_t nsteps, const int n_out, const double *sym, uint16_t *back, uint8_t *bits)
{
    for (ptrdiff_t f = 0; f < nframes; f++) {
        const double *row = soft + f * in_width;
        double metrics[2][NSTATES];
        double *pm = metrics[0], *next = metrics[1];

        pm[0] = 0.0;
        for (int s = 1; s < NSTATES; s++)
            pm[s] = NEG_METRIC;

        for (ptrdiff_t t = 0; t < nsteps; t++) {
            const int32_t *src = source + t * n_out;
            double seg[n_out];
            for (int j = 0; j < n_out; j++)
                seg[j] = src[j] < 0 ? 0.0 : row[src[j]];
            unsigned decisions = 0;
            _Pragma("GCC unroll 8")
            for (int i = 0; i < NSTATES / 2; i++) {
                const double *out = sym + i * n_out;
                double m = seg[0] * out[0];
                for (int j = 1; j < n_out; j++)
                    m = m + seg[j] * out[j];
                const double even = pm[2 * i], odd = pm[2 * i + 1];
                /* Ties keep the even predecessor, as in the numpy kernel. */
                const double c0 = even + m, c1 = odd - m;
                const double d0 = even - m, d1 = odd + m;
                const unsigned pick_c = c1 > c0, pick_d = d1 > d0;
                next[i] = pick_c ? c1 : c0;
                next[i + 8] = pick_d ? d1 : d0;
                decisions |= pick_c << i | pick_d << (i + 8);
            }
            back[t] = (uint16_t)decisions;
            double *swap = pm;
            pm = next;
            next = swap;
        }

        uint8_t *decoded = bits + f * nsteps;
        unsigned state = 0;
        for (ptrdiff_t t = nsteps - 1; t >= 0; t--) {
            decoded[t] = (uint8_t)(state >> 3);
            state = ((state & 7) << 1) | ((back[t] >> state) & 1);
        }
    }
}

#ifdef __x86_64__

/* The four-lane body for nframes, a multiple of four.  lanes: 4 * nsteps *
 * n_out doubles of scratch that hold a group's soft values, column-major with
 * the four frames interleaved.  back: one byte per (step, state), bit l for
 * lane l. */
static inline __attribute__((always_inline, target("avx2"))) void
decode4(const double *soft, ptrdiff_t nframes, ptrdiff_t in_width, const int32_t *source,
        ptrdiff_t nsteps, const int n_out, const double *sym, double *lanes, uint8_t *back,
        uint8_t *bits)
{
    /* Branch outputs broadcast once; held in locals, they need no reload
     * after each byte stored to back, which may alias sym. */
    __m256d out[NSTATES / 2][n_out];
    for (int i = 0; i < NSTATES / 2; i++)
        for (int j = 0; j < n_out; j++)
            out[i][j] = _mm256_set1_pd(sym[i * n_out + j]);

    for (ptrdiff_t first = 0; first < nframes; first += LANES) {
        const double *row[LANES];
        for (int l = 0; l < LANES; l++)
            row[l] = soft + (first + l) * in_width;
        for (ptrdiff_t c = 0; c < nsteps * n_out; c++) {
            const int32_t s = source[c];
            const __m256d v = s < 0 ? _mm256_setzero_pd()
                                    : _mm256_set_pd(row[3][s], row[2][s], row[1][s], row[0][s]);
            _mm256_storeu_pd(lanes + LANES * c, v);
        }

        __m256d metrics[2][NSTATES];
        __m256d *pm = metrics[0], *next = metrics[1];
        pm[0] = _mm256_setzero_pd();
        for (int s = 1; s < NSTATES; s++)
            pm[s] = _mm256_set1_pd(NEG_METRIC);

        for (ptrdiff_t t = 0; t < nsteps; t++) {
            const double *seg = lanes + LANES * n_out * t;
            uint8_t *decisions = back + NSTATES * t;
            _Pragma("GCC unroll 8")
            for (int i = 0; i < NSTATES / 2; i++) {
                __m256d m = _mm256_mul_pd(_mm256_loadu_pd(seg), out[i][0]);
                for (int j = 1; j < n_out; j++)
                    m = _mm256_add_pd(
                        m, _mm256_mul_pd(_mm256_loadu_pd(seg + LANES * j), out[i][j]));
                const __m256d even = pm[2 * i], odd = pm[2 * i + 1];
                const __m256d c0 = _mm256_add_pd(even, m), c1 = _mm256_sub_pd(odd, m);
                const __m256d d0 = _mm256_sub_pd(even, m), d1 = _mm256_add_pd(odd, m);
                /* Ordered greater-than: false on ties, like c1 > c0 above. */
                const __m256d pick_c = _mm256_cmp_pd(c1, c0, _CMP_GT_OQ);
                const __m256d pick_d = _mm256_cmp_pd(d1, d0, _CMP_GT_OQ);
                next[i] = _mm256_blendv_pd(c0, c1, pick_c);
                next[i + 8] = _mm256_blendv_pd(d0, d1, pick_d);
                decisions[i] = (uint8_t)_mm256_movemask_pd(pick_c);
                decisions[i + 8] = (uint8_t)_mm256_movemask_pd(pick_d);
            }
            __m256d *swap = pm;
            pm = next;
            next = swap;
        }

        for (int l = 0; l < LANES; l++) {
            uint8_t *decoded = bits + (first + l) * nsteps;
            unsigned state = 0;
            for (ptrdiff_t t = nsteps - 1; t >= 0; t--) {
                decoded[t] = (uint8_t)(state >> 3);
                state = ((state & 7) << 1) | ((back[NSTATES * t + state] >> l) & 1);
            }
        }
    }
}

/* decode4 with a constant n_out for each code rate; separate from
 * hrcc_viterbi, which must not be compiled for AVX2. */
static __attribute__((target("avx2"))) void
decode_groups(const double *soft, ptrdiff_t nframes, ptrdiff_t in_width, const int32_t *source,
              ptrdiff_t nsteps, int n_out, const double *sym, double *lanes, uint8_t *back,
              uint8_t *bits)
{
    if (n_out == 2)
        decode4(soft, nframes, in_width, source, nsteps, 2, sym, lanes, back, bits);
    else
        decode4(soft, nframes, in_width, source, nsteps, 3, sym, lanes, back, bits);
}

#endif

/* Frames decoded at once by the fastest body this CPU runs. */
int hrcc_viterbi_lanes(void)
{
#ifdef __x86_64__
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return LANES;
#endif
    return 1;
}

/* soft:   (nframes, in_width) row-major soft values, +1 meaning coded bit 0.
 * source: width entries, each -1 or a column of a soft row; see above.
 * n_out:  2 or 3, the code rate's denominator; kernels.py rejects any other.
 * sym:    (8, n_out) outputs of the branch from state 2i under input 0.
 * bits:   (nframes, width / n_out) decoded inputs, tail included.
 * Returns 0, or -1 if the scratch buffer cannot be allocated.
 */
int hrcc_viterbi(const double *soft, ptrdiff_t nframes, ptrdiff_t in_width,
                 const int32_t *source, ptrdiff_t width, int n_out, const double *sym,
                 uint8_t *bits)
{
    const ptrdiff_t nsteps = width / n_out;
    if (nframes == 0 || nsteps == 0)
        return 0;
    /* back: NSTATES bytes per step for the AVX2 body, or one word per step
     * for the scalar body; lanes follows it. */
    uint8_t *back = malloc(NSTATES * nsteps + LANES * nsteps * n_out * sizeof(double));
    if (back == NULL)
        return -1;
    ptrdiff_t grouped = 0;
#ifdef __x86_64__
    if (hrcc_viterbi_lanes() == LANES) {
        grouped = nframes - nframes % LANES;
        decode_groups(soft, grouped, in_width, source, nsteps, n_out, sym,
                      (double *)(back + NSTATES * nsteps), back, bits);
    }
#endif
    soft += grouped * in_width;
    bits += grouped * nsteps;
    nframes -= grouped;
    if (n_out == 2)
        decode1(soft, nframes, in_width, source, nsteps, 2, sym, (uint16_t *)back, bits);
    else
        decode1(soft, nframes, in_width, source, nsteps, 3, sym, (uint16_t *)back, bits);
    free(back);
    return 0;
}

/* kernels.channel_np's numpy passes, in their order, in one loop: out holds
 * (nframes, width) standard normals and column j carries bit columns[j] of a row
 * of bits, which kernels.py checked; returns -1 if a bit read is not 0 or 1, else
 * 0.  No branch on a bit's value: random bits mispredict. */
int hrcc_channel(double *out, ptrdiff_t nframes, ptrdiff_t width, const uint8_t *bits,
                 ptrdiff_t in_width, const int32_t *columns, double sigma, double power)
{
    unsigned seen = 0;
    for (ptrdiff_t f = 0; f < nframes; f++, out += width, bits += in_width)
        for (ptrdiff_t j = 0; j < width; j++) {
            double v = out[j] * sigma;
            seen |= bits[columns[j]];
            v += 1.0 - 2.0 * bits[columns[j]];
            v *= 2.0;
            out[j] = v / power;
        }
    return seen > 1 ? -1 : 0;
}
