/* One QAOA layer applied in place to a complex128 statevector.
 *
 * puboqa_layer(psi, n, phase, inv, first, c, s) sets amplitude z to
 * phase[inv[z]] (first != 0) or multiplies it by phase[inv[z]], then applies
 * [[c, -i s], [-i s, c]] to qubits 0, 1, ..., n-1 in that order. Each
 * rotation is the same few multiplies and adds for every amplitude, so the
 * result does not depend on how the work is blocked or vectorized, as long
 * as no multiply-add is fused: build without FMA and with
 * -ffp-contract=off.
 *
 * The first sweep takes chunks of 2^13 amplitudes: the phase step, then the
 * qubits below 13 while the chunk is in cache. The second sweep copies
 * slabs of 2^8 amplitudes from each of 2^7 rows into a buffer and applies up
 * to 7 higher qubits there. Returns 0, or -1 if the buffer cannot be had.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CHUNK_QUBITS 13
#define SLAB_QUBITS 8
#define GROUP_QUBITS 7
#define INLINE static inline __attribute__((always_inline))

/* (a, b) <- (c a - i s b, c b - i s a) on real and imaginary parts. */
#define ROTATE(ar, ai, br, bi) do { \
        double ar_ = ar, ai_ = ai, br_ = br, bi_ = bi; \
        ar = c * ar_ + s * bi_; ai = c * ai_ - s * br_; \
        br = c * br_ + s * ai_; bi = c * bi_ - s * ar_; \
    } while (0)

/* Qubits q and q + 1 of len amplitudes, q first. */
INLINE void pass2(double *x, size_t len, int q, double c, double s)
{
    size_t h = (size_t)1 << q;
    for (size_t base = 0; base < len; base += 4 * h)
        for (size_t j = base; j < base + h; j++) {
            double *p0 = x + 2 * j, *p1 = p0 + 2 * h, *p2 = p0 + 4 * h, *p3 = p0 + 6 * h;
            double r0 = p0[0], i0 = p0[1], r1 = p1[0], i1 = p1[1];
            double r2 = p2[0], i2 = p2[1], r3 = p3[0], i3 = p3[1];
            ROTATE(r0, i0, r1, i1);
            ROTATE(r2, i2, r3, i3);
            ROTATE(r0, i0, r2, i2);
            ROTATE(r1, i1, r3, i3);
            p0[0] = r0; p0[1] = i0; p1[0] = r1; p1[1] = i1;
            p2[0] = r2; p2[1] = i2; p3[0] = r3; p3[1] = i3;
        }
}

INLINE void pass1(double *x, size_t len, int q, double c, double s)
{
    size_t h = (size_t)1 << q;
    for (size_t base = 0; base < len; base += 2 * h)
        for (size_t j = base; j < base + h; j++) {
            double *p0 = x + 2 * j, *p1 = p0 + 2 * h;
            double r0 = p0[0], i0 = p0[1], r1 = p1[0], i1 = p1[1];
            ROTATE(r0, i0, r1, i1);
            p0[0] = r0; p0[1] = i0; p1[0] = r1; p1[1] = i1;
        }
}

/* Qubits lo..hi-1 of len amplitudes, two per pass. Passes at q = 0 and 2
 * take a constant q, so that their short inner loops unroll and vectorize. */
INLINE void mix(double *x, size_t len, int lo, int hi, double c, double s)
{
    int q = lo;
    for (; q + 1 < hi; q += 2) {
        if (q == 0)
            pass2(x, len, 0, c, s);
        else if (q == 2)
            pass2(x, len, 2, c, s);
        else
            pass2(x, len, q, c, s);
    }
    if (q < hi)
        pass1(x, len, q, c, s);
}

__attribute__((target_clones("avx2", "default")))
int puboqa_layer(double *psi, int n, const double *phase, const intptr_t *inv,
                 int first, double c, double s)
{
    int low = n < CHUNK_QUBITS ? n : CHUNK_QUBITS;
    size_t size = (size_t)1 << n, chunk = (size_t)1 << low, slab = (size_t)1 << SLAB_QUBITS;

    for (size_t o = 0; o < size; o += chunk) {
        double *x = psi + 2 * o;
        for (size_t z = 0; z < chunk; z++) {
            const double *p = phase + 2 * inv[o + z];
            if (first) {
                x[2 * z] = p[0];
                x[2 * z + 1] = p[1];
            } else {
                double ar = x[2 * z], ai = x[2 * z + 1];
                x[2 * z] = ar * p[0] - ai * p[1];
                x[2 * z + 1] = ar * p[1] + ai * p[0];
            }
        }
        mix(x, chunk, 0, low, c, s);
    }
    if (n <= CHUNK_QUBITS)
        return 0;

    double *buf = malloc(sizeof(double) * 2 * (slab << GROUP_QUBITS));
    if (buf == NULL)
        return -1;
    for (int lo = CHUNK_QUBITS; lo < n; lo += GROUP_QUBITS) {
        int g = n - lo < GROUP_QUBITS ? n - lo : GROUP_QUBITS;
        size_t rows = (size_t)1 << g, stride = (size_t)1 << lo;
        for (size_t outer = 0; outer < size; outer += rows * stride)
            for (size_t col = outer; col < outer + stride; col += slab) {
                for (size_t r = 0; r < rows; r++)
                    memcpy(buf + 2 * r * slab, psi + 2 * (col + r * stride), sizeof(double) * 2 * slab);
                mix(buf, rows * slab, SLAB_QUBITS, SLAB_QUBITS + g, c, s);
                for (size_t r = 0; r < rows; r++)
                    memcpy(psi + 2 * (col + r * stride), buf + 2 * r * slab, sizeof(double) * 2 * slab);
            }
    }
    free(buf);
    return 0;
}
