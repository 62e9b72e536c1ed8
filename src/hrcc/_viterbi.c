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
 */

#include <stddef.h>
#include <stdint.h>

#define NSTATES 16
#define NEG_METRIC (-1.0e30)

/* The body of the kernel for one code rate; always inlined, so that each
 * call below compiles with a constant n_out and a fully unrolled butterfly
 * loop. */
static inline __attribute__((always_inline)) void
decode(const double *soft, ptrdiff_t nframes, ptrdiff_t width, const int n_out,
       const double *sym, uint16_t *back, uint8_t *bits)
{
    const ptrdiff_t nsteps = width / n_out;

    for (ptrdiff_t f = 0; f < nframes; f++) {
        const double *row = soft + f * width;
        double metrics[2][NSTATES];
        double *pm = metrics[0], *next = metrics[1];

        pm[0] = 0.0;
        for (int s = 1; s < NSTATES; s++)
            pm[s] = NEG_METRIC;

        for (ptrdiff_t t = 0; t < nsteps; t++) {
            const double *seg = row + t * n_out;
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

/* soft:  (nframes, width) row-major soft values, +1 meaning coded bit 0.
 * sym:   (8, n_out) outputs of the branch from state 2i under input 0.
 * back:  width / n_out words of scratch, one decision bit per state.
 * bits:  (nframes, width / n_out) decoded inputs, tail included.
 */
void hrcc_viterbi_batch(const double *soft, ptrdiff_t nframes, ptrdiff_t width,
                        int n_out, const double *sym, uint16_t *back, uint8_t *bits)
{
    if (n_out == 2)
        decode(soft, nframes, width, 2, sym, back, bits);
    else if (n_out == 3)
        decode(soft, nframes, width, 3, sym, back, bits);
    else
        decode(soft, nframes, width, n_out, sym, back, bits);
}
