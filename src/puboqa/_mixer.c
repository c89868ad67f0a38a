/* The compiled kernel of puboqa's simulator: one QAOA layer applied in place
 * to a complex128 statevector, and the subset-sum passes of a cost table.
 *
 * puboqa_layer(psi, n, phase, inv, first, c, s, totals, threads) sets
 * amplitude z to phase[inv[z]] (first != 0) or multiplies it by
 * phase[inv[z]], then applies [[c, -i s], [-i s, c]] to qubits 0, 1, ...,
 * n-1 in that order. Each rotation is the same few multiplies and adds for
 * every amplitude, so the result does not depend on how the work is blocked,
 * vectorized or shared between threads, as long as no multiply-add is
 * fused: build without FMA and with -ffp-contract=off.
 *
 * Every rotation runs on split planes, the real parts in one array and the
 * imaginary parts in another, so that a pass reads and writes whole rows of
 * doubles. The first sweep takes chunks of 2^13 amplitudes: it gathers the
 * phase step into the planes, rotates the qubits below 13 while the chunk
 * is in cache, and interleaves the chunk back into psi. The second sweep
 * de-interleaves slabs of 2^8 amplitudes from each of 2^7 rows into the
 * planes, applies up to 7 higher qubits there, and interleaves them back.
 *
 * With threads >= 2, a helper thread takes the lower half of each sweep's
 * chunks, or of each group's (outer, column) slab pairs, on planes of its
 * own, and the calling thread joins it before the next sweep or group
 * starts. Every chunk and slab is computed by one thread with the same
 * arithmetic, so the bits do not depend on the thread count. If the helper
 * cannot be started, the calling thread does its share.
 *
 * If totals is not NULL and n >= 8, the write-out that finishes the layer
 * (the first sweep's for n <= 13, the last group's of the second sweep
 * above) also sets totals[k] to the sum of |psi[z]|^2 over the k-th slab of
 * 2^8 amplitudes. Its order of additions is fixed, but not that of a
 * sequential sum. Returns 0, or -1 if the planes cannot be allocated.
 *
 * puboqa_table(values, n) makes pass k = 0, 1, ..., n-1 over the 2^n
 * doubles of a cost table in place: each entry with bit k clear is added
 * onto its partner with bit k set. Every entry then receives the same
 * additions in the same order as from one pass at a time over the whole
 * table, so the result is bit for bit that of qaoa._subset_sum_passes, for
 * any values. The passes below 16 run on blocks of 2^16 entries, the first
 * three as one step on each 8 entries and the rest three at a time. The
 * passes above run in groups of up to 6, on slabs of 2^8 entries copied
 * from each of a group's rows, as the second sweep of a layer groups its
 * qubits; so each entry crosses memory once per group. Returns 0, or -1 if
 * the slab buffer cannot be allocated.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CHUNK_QUBITS 13
#define SLAB_QUBITS 8
#define GROUP_QUBITS 7
/* Running sums of a slab total, added together in lane order at the end. */
#define LANES 8
#define INLINE static inline __attribute__((always_inline))
/* The cost table's low passes run on blocks of 2^16 entries (512 KiB); each
 * later group of up to 6 passes on slabs of 2^8 entries from each of its 2^6
 * rows (128 KiB). */
#define TABLE_BLOCK_QUBITS 16
#define TABLE_GROUP_QUBITS 6
#define TABLE_SLAB_QUBITS 8

/* (a, b) <- (c a - i s b, c b - i s a) on real and imaginary parts. */
#define ROTATE(ar, ai, br, bi) do { \
        double ar_ = ar, ai_ = ai, br_ = br, bi_ = bi; \
        ar = c * ar_ + s * bi_; ai = c * ai_ - s * br_; \
        br = c * br_ + s * ai_; bi = c * bi_ - s * ar_; \
    } while (0)

/* Two qubits on four rows of count amplitudes, step elements apart: the
 * lower qubit pairs rows (0, 1) and (2, 3), then the upper (0, 2) and (1, 3).
 * Without restrict gcc does not vectorize these loops. */
INLINE void quad(double *restrict r0, double *restrict i0, double *restrict r1, double *restrict i1,
                 double *restrict r2, double *restrict i2, double *restrict r3, double *restrict i3,
                 size_t count, size_t step, double c, double s)
{
    for (size_t j = 0; j < count * step; j += step) {
        double a0 = r0[j], b0 = i0[j], a1 = r1[j], b1 = i1[j];
        double a2 = r2[j], b2 = i2[j], a3 = r3[j], b3 = i3[j];
        ROTATE(a0, b0, a1, b1);
        ROTATE(a2, b2, a3, b3);
        ROTATE(a0, b0, a2, b2);
        ROTATE(a1, b1, a3, b3);
        r0[j] = a0; i0[j] = b0; r1[j] = a1; i1[j] = b1;
        r2[j] = a2; i2[j] = b2; r3[j] = a3; i3[j] = b3;
    }
}

INLINE void pair(double *restrict r0, double *restrict i0, double *restrict r1, double *restrict i1,
                 size_t count, double c, double s)
{
    for (size_t j = 0; j < count; j++) {
        double a0 = r0[j], b0 = i0[j], a1 = r1[j], b1 = i1[j];
        ROTATE(a0, b0, a1, b1);
        r0[j] = a0; i0[j] = b0; r1[j] = a1; i1[j] = b1;
    }
}

/* Qubits q and q + 1 of len amplitudes, q first. At q = 0 the four rows
 * interleave, one element of each in every four. */
INLINE void pass2(double *re, double *im, size_t len, int q, double c, double s)
{
    if (q == 0) {
        quad(re, im, re + 1, im + 1, re + 2, im + 2, re + 3, im + 3, len / 4, 4, c, s);
        return;
    }
    size_t h = (size_t)1 << q;
    for (size_t base = 0; base < len; base += 4 * h) {
        double *r = re + base, *i = im + base;
        quad(r, i, r + h, i + h, r + 2 * h, i + 2 * h, r + 3 * h, i + 3 * h, h, 1, c, s);
    }
}

INLINE void pass1(double *re, double *im, size_t len, int q, double c, double s)
{
    size_t h = (size_t)1 << q;
    for (size_t base = 0; base < len; base += 2 * h)
        pair(re + base, im + base, re + base + h, im + base + h, h, c, s);
}

/* Qubits lo..hi-1 of len amplitudes, two per pass. */
INLINE void mix(double *re, double *im, size_t len, int lo, int hi, double c, double s)
{
    int q = lo;
    for (; q + 1 < hi; q += 2)
        pass2(re, im, len, q, c, s);
    if (q < hi)
        pass1(re, im, len, q, c, s);
}

INLINE void split(double *restrict re, double *restrict im, const double *restrict x, size_t len)
{
    for (size_t j = 0; j < len; j++) {
        re[j] = x[2 * j];
        im[j] = x[2 * j + 1];
    }
}

INLINE void join(double *restrict x, const double *restrict re, const double *restrict im, size_t len)
{
    for (size_t j = 0; j < len; j++) {
        x[2 * j] = re[j];
        x[2 * j + 1] = im[j];
    }
}

/* The sum of re[j]^2 + im[j]^2 over len (a multiple of LANES) amplitudes.
 * (Summed in the loop that joins them, gcc vectorizes it badly.) */
INLINE double total(const double *restrict re, const double *restrict im, size_t len)
{
    double acc[LANES] = {0};
    for (size_t j = 0; j < len; j += LANES)
        for (int k = 0; k < LANES; k++)
            acc[k] += re[j + k] * re[j + k] + im[j + k] * im[j + k];
    double sum = acc[0];
    for (int k = 1; k < LANES; k++)
        sum += acc[k];
    return sum;
}

/* One thread's share of one sweep of a layer: the first sweep (lo = 0) or
 * the group of qubits from lo up in the second, on its own planes re and im.
 * from..to counts chunks of the first sweep, or (outer, column) pairs of
 * slabs of a group, in the order one thread would take them. */
struct share {
    double *psi, *totals, *re, *im;
    const double *phase;
    const intptr_t *inv;
    double c, s;
    int n, first, lo;
    size_t from, to;
};

INLINE void first_sweep(const struct share *w)
{
    int n = w->n, low = n < CHUNK_QUBITS ? n : CHUNK_QUBITS;
    size_t chunk = (size_t)1 << low, slab = (size_t)1 << SLAB_QUBITS;
    double *re = w->re, *im = w->im, *totals = w->totals, c = w->c, s = w->s;
    const double *phase = w->phase;
    for (size_t o = w->from * chunk; o < w->to * chunk; o += chunk) {
        double *x = w->psi + 2 * o;
        const intptr_t *k = w->inv + o;
        if (w->first)
            for (size_t z = 0; z < chunk; z++) {
                re[z] = phase[2 * k[z]];
                im[z] = phase[2 * k[z] + 1];
            }
        else
            for (size_t z = 0; z < chunk; z++) {
                double ar = x[2 * z], ai = x[2 * z + 1];
                double pr = phase[2 * k[z]], pi = phase[2 * k[z] + 1];
                re[z] = ar * pr - ai * pi;
                im[z] = ar * pi + ai * pr;
            }
        mix(re, im, chunk, 0, low, c, s);
        join(x, re, im, chunk);
        if (totals != NULL && n <= CHUNK_QUBITS)
            for (size_t b = 0; b < chunk; b += slab)
                totals[(o + b) >> SLAB_QUBITS] = total(re + b, im + b, slab);
    }
}

INLINE void group(const struct share *w)
{
    int n = w->n, lo = w->lo, g = n - lo < GROUP_QUBITS ? n - lo : GROUP_QUBITS;
    int last = w->totals != NULL && lo + g == n;
    size_t slab = (size_t)1 << SLAB_QUBITS;
    size_t rows = (size_t)1 << g, stride = (size_t)1 << lo, cols = stride / slab;
    double *re = w->re, *im = w->im, *psi = w->psi, *totals = w->totals;
    for (size_t p = w->from; p < w->to; p++) {
        size_t col = p / cols * rows * stride + p % cols * slab;
        for (size_t r = 0; r < rows; r++)
            split(re + r * slab, im + r * slab, psi + 2 * (col + r * stride), slab);
        mix(re, im, rows * slab, SLAB_QUBITS, SLAB_QUBITS + g, w->c, w->s);
        for (size_t r = 0; r < rows; r++) {
            size_t z = col + r * stride;
            join(psi + 2 * z, re + r * slab, im + r * slab, slab);
            if (last)
                totals[z >> SLAB_QUBITS] = total(re + r * slab, im + r * slab, slab);
        }
    }
}

/* Both threads enter here, so that each runs the clone for its machine. */
__attribute__((target_clones("avx2", "default")))
static void work(const struct share *w)
{
    if (w->lo == 0)
        first_sweep(w);
    else
        group(w);
}

static void *helper(void *w)
{
    work(w);
    return NULL;
}

/* Runs units 0..count-1 of one sweep: mine takes the upper part, theirs, on
 * a helper thread, the lower half rounded down. */
static void share_out(struct share *mine, struct share *theirs, int threads, size_t count)
{
    size_t cut = threads > 1 ? count / 2 : 0;
    pthread_t t;
    theirs->from = 0;
    theirs->to = mine->from = cut;
    mine->to = count;
    int helped = cut > 0 && pthread_create(&t, NULL, helper, theirs) == 0;
    work(mine);
    if (helped)
        pthread_join(t, NULL);
    else
        work(theirs);
}

int puboqa_layer(double *psi, int n, const double *phase, const intptr_t *inv,
                 int first, double c, double s, double *totals, int threads)
{
    int low = n < CHUNK_QUBITS ? n : CHUNK_QUBITS;
    size_t size = (size_t)1 << n, slab = (size_t)1 << SLAB_QUBITS;
    size_t planes = n > CHUNK_QUBITS ? slab << GROUP_QUBITS : (size_t)1 << low;
    if (n < SLAB_QUBITS)
        totals = NULL;

    /* Both threads' planes in one allocation: the helper never allocates. */
    double *re = malloc(sizeof(double) * 2 * planes * (threads > 1 ? 2 : 1));
    if (re == NULL)
        return -1;
    struct share mine = {.psi = psi, .totals = totals, .re = re, .im = re + planes,
                         .phase = phase, .inv = inv, .c = c, .s = s, .n = n, .first = first};
    struct share theirs = mine;
    if (threads > 1) {
        theirs.re = re + 2 * planes;
        theirs.im = re + 3 * planes;
    }
    share_out(&mine, &theirs, threads, size >> low);
    for (int lo = CHUNK_QUBITS; lo < n; lo += GROUP_QUBITS) {
        int g = n - lo < GROUP_QUBITS ? n - lo : GROUP_QUBITS;
        mine.lo = theirs.lo = lo;
        share_out(&mine, &theirs, threads, size >> (g + SLAB_QUBITS));
    }
    free(re);
    return 0;
}

/* Subset-sum passes on rows of count entries, step elements apart: one pass
 * on rows (0, 1); two on four rows; three on eight. Each pass adds every
 * row whose index has its bit clear onto the row with that bit set, the
 * lowest bit first. */
INLINE void sum2(double *restrict r0, double *restrict r1, size_t count, size_t step)
{
    for (size_t j = 0; j < count * step; j += step)
        r1[j] += r0[j];
}

INLINE void sum4(double *restrict r0, double *restrict r1, double *restrict r2, double *restrict r3,
                 size_t count, size_t step)
{
    for (size_t j = 0; j < count * step; j += step) {
        double a0 = r0[j], a1 = r1[j], a2 = r2[j], a3 = r3[j];
        a1 += a0; a3 += a2;
        a2 += a0; a3 += a1;
        r1[j] = a1; r2[j] = a2; r3[j] = a3;
    }
}

INLINE void sum8(double *restrict r0, double *restrict r1, double *restrict r2, double *restrict r3,
                 double *restrict r4, double *restrict r5, double *restrict r6, double *restrict r7,
                 size_t count, size_t step)
{
    for (size_t j = 0; j < count * step; j += step) {
        double a0 = r0[j], a1 = r1[j], a2 = r2[j], a3 = r3[j];
        double a4 = r4[j], a5 = r5[j], a6 = r6[j], a7 = r7[j];
        a1 += a0; a3 += a2; a5 += a4; a7 += a6;
        a2 += a0; a3 += a1; a6 += a4; a7 += a5;
        a4 += a0; a5 += a1; a6 += a2; a7 += a3;
        r1[j] = a1; r2[j] = a2; r3[j] = a3;
        r4[j] = a4; r5[j] = a5; r6[j] = a6; r7[j] = a7;
    }
}

/* k passes on 2^k rows that start h apart at v. */
INLINE void sums(double *v, size_t h, size_t count, size_t step, int k)
{
    if (k == 1)
        sum2(v, v + h, count, step);
    else if (k == 2)
        sum4(v, v + h, v + 2 * h, v + 3 * h, count, step);
    else
        sum8(v, v + h, v + 2 * h, v + 3 * h, v + 4 * h, v + 5 * h, v + 6 * h, v + 7 * h, count, step);
}

/* count passes over len entries, the first pairing entries h apart: three
 * at a time, then what is left. At h = 1 one strided step takes every row
 * of 2^k entries. */
INLINE void passes(double *v, size_t len, size_t h, int count)
{
    while (count > 0) {
        int k = count < 3 ? count : 3;
        size_t span = h << k;
        if (h == 1)
            sums(v, 1, len / span, span, k);
        else
            for (size_t base = 0; base < len; base += span)
                sums(v + base, h, h, 1, k);
        count -= k;
        h = span;
    }
}

/* Vectorized with AVX2 where the machine has it; sums round the same either way. */
__attribute__((target_clones("avx2", "default")))
int puboqa_table(double *values, int n)
{
    int low = n < TABLE_BLOCK_QUBITS ? n : TABLE_BLOCK_QUBITS;
    size_t size = (size_t)1 << n, block = (size_t)1 << low;
    for (size_t o = 0; o < size; o += block)
        passes(values + o, block, 1, low);
    if (n == low)
        return 0;
    size_t slab = (size_t)1 << TABLE_SLAB_QUBITS;
    double *buf = malloc(sizeof(double) * (slab << TABLE_GROUP_QUBITS));
    if (buf == NULL)
        return -1;
    /* Rows 2^lo entries apart share cache sets, so each slab is copied. */
    for (int lo = low; lo < n; lo += TABLE_GROUP_QUBITS) {
        int g = n - lo < TABLE_GROUP_QUBITS ? n - lo : TABLE_GROUP_QUBITS;
        size_t rows = (size_t)1 << g, stride = (size_t)1 << lo;
        for (size_t outer = 0; outer < size; outer += rows * stride)
            for (size_t col = 0; col < stride; col += slab) {
                double *x = values + outer + col;
                for (size_t r = 0; r < rows; r++)
                    memcpy(buf + r * slab, x + r * stride, sizeof(double) * slab);
                passes(buf, rows * slab, slab, g);
                for (size_t r = 0; r < rows; r++)
                    memcpy(x + r * stride, buf + r * slab, sizeof(double) * slab);
            }
    }
    free(buf);
    return 0;
}
