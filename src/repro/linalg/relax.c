/*
 * The compiled dense semiring kernel behind repro.linalg.payload.DenseOps.
 *
 *   apspark_relax:  C[i,j] = D[i,j] ⊕ ⊕_p A[i,p] ⊗ B[p,j]
 *                   (D == NULL: C[i,j] = ⊕_p A[i,p] ⊗ B[p,j])
 *   apspark_fw:     for p: C[i,j] = C[i,j] ⊕ (C[i,p] ⊗ C[p,j])
 *
 * for the four numeric algebras (shortest, widest, most-reliable, longest)
 * in double and float.  Operands are row-major with a unit inner stride and
 * a row stride in elements (ldX), so strided sub-blocks need no copy.
 *
 * Every result is bit-identical to the NumPy kernels it replaces, which stay
 * the fallback and the oracle:
 *   - ⊕ is np.minimum / np.maximum exactly: a NaN first operand wins, else
 *     the first operand on a strict win, else the second (so a NaN second
 *     operand, and the second of two equal zeros);
 *   - the ⊕-sum over p runs in NumPy's reduce order, acc = acc ⊕ term for
 *     p = 1, 2, ..., and is then combined as D ⊕ acc;
 *   - ⊗ is one IEEE operation; the loader compiles with -ffp-contract=off
 *     and no fast-math flag, so no fused multiply-add changes a rounding.
 * The inner j loops are contiguous and left for the compiler to vectorize.
 */
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

typedef ptrdiff_t idx;

#define INLINE static inline __attribute__((always_inline))

/* np.minimum(x, y) and np.maximum(x, y). */
#define MIN_NAN(x, y) (((x) != (x) || (x) < (y)) ? (x) : (y))
#define MAX_NAN(x, y) (((x) != (x) || (x) > (y)) ? (x) : (y))
/* The same when x is never NaN: one vector min/max instruction. */
#define MIN_NUM(x, y) ((x) < (y) ? (x) : (y))
#define MAX_NUM(x, y) ((x) > (y) ? (x) : (y))

enum { SHORTEST = 0, WIDEST = 1, RELIABLE = 2, LONGEST = 3 };

/* Bits of classify(): which special values an operand holds. */
enum { HAS_NAN = 1, HAS_POS_INF = 2, HAS_NEG_INF = 4, HAS_ZERO = 8 };

#define DEFINE_KERNELS(T, S)                                                   \
INLINE T add_##S(int alg, T x, T y)                                            \
{                                                                              \
    return alg == SHORTEST ? MIN_NAN(x, y) : MAX_NAN(x, y);                    \
}                                                                              \
                                                                               \
INLINE T mul_##S(int alg, T x, T y)                                            \
{                                                                              \
    return alg == WIDEST ? MIN_NAN(x, y) : alg == RELIABLE ? x * y : x + y;    \
}                                                                              \
                                                                               \
static unsigned classify_##S(const T *x, idx ld, idx rows, idx cols)           \
{                                                                              \
    unsigned flags = 0;                                                        \
    for (idx r = 0; r < rows; ++r)                                             \
        for (idx j = 0; j < cols; ++j) {                                       \
            T v = x[r * ld + j];                                               \
            flags |= (v != v) | (v == INFINITY) << 1                           \
                   | (v == -INFINITY) << 2 | (v == 0) << 3;                    \
        }                                                                      \
    return flags;                                                              \
}                                                                              \
                                                                               \
/* The rows of C, one ⊕-accumulator row at a time.  With exact == 0 no        \
   term A[i,p] ⊗ B[p,j] is NaN, so neither is the accumulator and the        \
   NaN test of ⊕ can be dropped from the inner loop. */                       \
INLINE void relax_rows_##S(int alg, int exact, T *c, idx ldc,                 \
                           const T *d, idx ldd, const T *a, idx lda,          \
                           const T *b, idx ldb, idx m, idx k, idx n,          \
                           T *restrict acc)                                   \
{                                                                              \
    for (idx i = 0; i < m; ++i) {                                              \
        const T *ai = a + i * lda;                                             \
        for (idx j = 0; j < n; ++j)                                            \
            acc[j] = mul_##S(alg, ai[0], b[j]);                                \
        for (idx p = 1; p < k; ++p) {                                          \
            const T *restrict bp = b + p * ldb;                                \
            T x = ai[p];                                                       \
            if (exact)                                                         \
                for (idx j = 0; j < n; ++j)                                    \
                    acc[j] = add_##S(alg, acc[j], mul_##S(alg, x, bp[j]));     \
            else if (alg == SHORTEST)                                          \
                for (idx j = 0; j < n; ++j) {                                  \
                    T v = mul_##S(alg, x, bp[j]);                              \
                    acc[j] = MIN_NUM(acc[j], v);                               \
                }                                                              \
            else                                                               \
                for (idx j = 0; j < n; ++j) {                                  \
                    T v = mul_##S(alg, x, bp[j]);                              \
                    acc[j] = MAX_NUM(acc[j], v);                               \
                }                                                              \
        }                                                                      \
        T *ci = c + i * ldc;                                                   \
        if (!d)                                                                \
            memcpy(ci, acc, (size_t)n * sizeof(T));                            \
        else                                                                   \
            for (idx j = 0; j < n; ++j)                                        \
                ci[j] = add_##S(alg, d[i * ldd + j], acc[j]);                  \
    }                                                                          \
}                                                                              \
                                                                               \
static int relax_##S(int alg, T *c, idx ldc, const T *d, idx ldd,            \
                     const T *a, idx lda, const T *b, idx ldb,                \
                     idx m, idx k, idx n)                                     \
{                                                                              \
    if (m <= 0 || n <= 0)                                                      \
        return 0;                                                              \
    unsigned fa = classify_##S(a, lda, m, k), fb = classify_##S(b, ldb, k, n); \
    unsigned inf_a = fa & (HAS_POS_INF | HAS_NEG_INF);                         \
    unsigned inf_b = fb & (HAS_POS_INF | HAS_NEG_INF);                         \
    int exact = ((fa | fb) & HAS_NAN)                                          \
        || ((alg == SHORTEST || alg == LONGEST)                                \
            && ((fa & HAS_POS_INF && fb & HAS_NEG_INF)                         \
                || (fa & HAS_NEG_INF && fb & HAS_POS_INF)))                    \
        || (alg == RELIABLE                                                    \
            && ((inf_a && fb & HAS_ZERO) || (fa & HAS_ZERO && inf_b)));        \
    T *acc = malloc((size_t)n * sizeof(T));                                    \
    if (!acc)                                                                  \
        return -1;                                                             \
    switch (alg * 2 + exact) {                                                 \
    case 0: relax_rows_##S(0, 0, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 1: relax_rows_##S(0, 1, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 2: relax_rows_##S(1, 0, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 3: relax_rows_##S(1, 1, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 4: relax_rows_##S(2, 0, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 5: relax_rows_##S(2, 1, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 6: relax_rows_##S(3, 0, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    case 7: relax_rows_##S(3, 1, c, ldc, d, ldd, a, lda, b, ldb, m, k, n, acc); break; \
    }                                                                          \
    free(acc);                                                                 \
    return 0;                                                                  \
}                                                                              \
                                                                               \
/* Row and column p are copied before sweep p reads them, as NumPy's          \
   add(C, mul(C[:, p, None], C[None, p, :]), out=C) does: the result does     \
   not depend on whether the diagonal is one. */                              \
INLINE void fw_sweeps_##S(int alg, T *c, idx ldc, idx n,                      \
                          T *restrict col, T *restrict row)                   \
{                                                                              \
    for (idx p = 0; p < n; ++p) {                                              \
        for (idx i = 0; i < n; ++i)                                            \
            col[i] = c[i * ldc + p];                                           \
        memcpy(row, c + p * ldc, (size_t)n * sizeof(T));                       \
        for (idx i = 0; i < n; ++i) {                                          \
            T *restrict ci = c + i * ldc;                                      \
            T x = col[i];                                                      \
            for (idx j = 0; j < n; ++j)                                        \
                ci[j] = add_##S(alg, ci[j], mul_##S(alg, x, row[j]));          \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
static int fw_##S(int alg, T *c, idx ldc, idx n)                              \
{                                                                              \
    if (n <= 0)                                                                \
        return 0;                                                              \
    T *col = malloc(2 * (size_t)n * sizeof(T));                                \
    if (!col)                                                                  \
        return -1;                                                             \
    switch (alg) {                                                             \
    case 0: fw_sweeps_##S(0, c, ldc, n, col, col + n); break;                  \
    case 1: fw_sweeps_##S(1, c, ldc, n, col, col + n); break;                  \
    case 2: fw_sweeps_##S(2, c, ldc, n, col, col + n); break;                  \
    case 3: fw_sweeps_##S(3, c, ldc, n, col, col + n); break;                  \
    }                                                                          \
    free(col);                                                                 \
    return 0;                                                                  \
}

DEFINE_KERNELS(double, f64)
DEFINE_KERNELS(float, f32)

/* Both return 0, or -1 when a scratch row cannot be allocated.  relax needs
   k >= 1: the empty ⊕-sum is left to the caller. */
int apspark_relax(int alg, int single, void *c, idx ldc, const void *d,
                  idx ldd, const void *a, idx lda, const void *b, idx ldb,
                  idx m, idx k, idx n)
{
    if (single)
        return relax_f32(alg, c, ldc, d, ldd, a, lda, b, ldb, m, k, n);
    return relax_f64(alg, c, ldc, d, ldd, a, lda, b, ldb, m, k, n);
}

int apspark_fw(int alg, int single, void *c, idx ldc, idx n)
{
    return single ? fw_f32(alg, c, ldc, n) : fw_f64(alg, c, ldc, n);
}
