/*
 * The compiled semiring kernels behind repro.linalg.payload.DenseOps and
 * WitnessOps.
 *
 *   apspark_relax:  C[i,j] = D[i,j] ⊕ ⊕_p A[i,p] ⊗ B[p,j]
 *                   (D == NULL: C[i,j] = ⊕_p A[i,p] ⊗ B[p,j])
 *   apspark_fw:     for p: C[i,j] = C[i,j] ⊕ (C[i,p] ⊗ C[p,j])
 *   apspark_witness_relax, apspark_witness_fw: the same two on witnessed
 *                   blocks, carrying their int32 parent/successor planes
 *
 * for the four numeric algebras (shortest, widest, most-reliable, longest)
 * in double and float.  Operands are row-major with a unit inner stride and
 * a row stride in elements (ldX), so strided sub-blocks need no copy; each
 * pointer plane has its own row stride.
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
 * Witnessed blocks follow repro.linalg.witness instead:
 *   - a product cell is the term at the *first* ⊕-winner k* (np.argmin /
 *     np.argmax): a strict win moves it, and the first NaN wins and sticks.
 *     It is not the ⊕-sum, which picks the other zero of a ±0.0 tie;
 *   - pointers compose as P_C = P_B[k*,j], falling back to P_A[i,k*] where
 *     that is NO_VERTEX, and R_C = R_A[i,k*], falling back to R_B[k*,j];
 *     cells whose value equals zero get NO_VERTEX;
 *   - relax is that product followed by witness_combine verbatim:
 *     c = D ⊕ prod, and the product's pointers are taken where
 *     c == prod and c != D;
 *   - FW copies row p of values and parents, and column p of values and
 *     successors, before sweep p, and moves pointers where the relaxed value
 *     != the old one (so a NaN counts as improved).
 * The inner j loops are contiguous and left for the compiler to vectorize.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
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

/* repro.linalg.witness.NO_VERTEX. */
#define NO_VERTEX (-1)

/* One witnessed block: its value plane and its int32 pointer planes, each
   with its own row stride (succs == NULL: a single-plane block). */
typedef struct {
    void *values;
    int32_t *parents;
    int32_t *succs;
    idx ldv, ldp, lds;
} planes;

/* The kernels of one float type T (suffix S); K, the type of a winning
   inner index, is as wide as T so that the product's selects vectorize. */
#define DEFINE_KERNELS(T, S, K)                                                \
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
/* Whether some term A[i,p] ⊗ B[p,j] can be NaN: a NaN operand, inf - inf      \
   under +, or 0 × inf under ×.  When none can, the loops below drop the       \
   NaN tests of ⊕. */                                                          \
static int may_nan_##S(int alg, const T *a, idx lda, const T *b, idx ldb,      \
                       idx m, idx k, idx n)                                    \
{                                                                              \
    unsigned fa = classify_##S(a, lda, m, k), fb = classify_##S(b, ldb, k, n); \
    unsigned inf_a = fa & (HAS_POS_INF | HAS_NEG_INF);                         \
    unsigned inf_b = fb & (HAS_POS_INF | HAS_NEG_INF);                         \
    return ((fa | fb) & HAS_NAN)                                               \
        || ((alg == SHORTEST || alg == LONGEST)                                \
            && ((fa & HAS_POS_INF && fb & HAS_NEG_INF)                         \
                || (fa & HAS_NEG_INF && fb & HAS_POS_INF)))                    \
        || (alg == RELIABLE                                                    \
            && ((inf_a && fb & HAS_ZERO) || (fa & HAS_ZERO && inf_b)));        \
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
    int exact = may_nan_##S(alg, a, lda, b, ldb, m, k, n);                     \
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
}                                                                              \
                                                                               \
/* Row ai of the witnessed product: acc[j] is the term at the first            \
   ⊕-winner arg[j] over p = 0, 1, ...  A strict win moves the winner and a     \
   NaN term beats any number; a NaN winner is never displaced.  With           \
   exact == 0 no term is NaN and only the strict test is left. */              \
INLINE void witness_row_##S(int alg, int exact, const T *ai, const T *b,       \
                            idx ldb, idx k, idx n, T *restrict acc,            \
                            K *restrict arg)                                   \
{                                                                              \
    for (idx j = 0; j < n; ++j) {                                              \
        acc[j] = mul_##S(alg, ai[0], b[j]);                                    \
        arg[j] = 0;                                                            \
    }                                                                          \
    for (idx p = 1; p < k; ++p) {                                              \
        const T *restrict bp = b + p * ldb;                                    \
        T x = ai[p];                                                           \
        for (idx j = 0; j < n; ++j) {                                          \
            T v = mul_##S(alg, x, bp[j]);                                      \
            int win = exact ? acc[j] == acc[j]                                 \
                              && (alg == SHORTEST ? !(v >= acc[j])             \
                                                  : !(v <= acc[j]))            \
                  : alg == SHORTEST ? v < acc[j] : v > acc[j];                 \
            acc[j] = win ? v : acc[j];                                         \
            arg[j] = win ? (K)p : arg[j];                                      \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
/* C (or C = D ⊕ C) from the winners of one row, with its pointers. */         \
INLINE void witness_compose_##S(int alg, T zero, idx i, const planes *c,       \
                                const planes *d, const planes *a,              \
                                const planes *b, idx n, const T *acc,          \
                                const K *arg)                                  \
{                                                                              \
    T *cv = (T *)c->values + i * c->ldv;                                       \
    int32_t *cp = c->parents + i * c->ldp;                                     \
    int32_t *cs = c->succs ? c->succs + i * c->lds : NULL;                     \
    const int32_t *ap = a->parents + i * a->ldp;                               \
    const int32_t *as = a->succs ? a->succs + i * a->lds : NULL;               \
    for (idx j = 0; j < n; ++j) {                                              \
        idx kj = arg[j];                                                       \
        T v = acc[j];                                                          \
        int32_t parent = b->parents[kj * b->ldp + j], succ = NO_VERTEX;        \
        if (parent == NO_VERTEX)                                               \
            parent = ap[kj];                                                   \
        if (cs) {                                                              \
            succ = as[kj];                                                     \
            if (succ == NO_VERTEX)                                             \
                succ = b->succs[kj * b->lds + j];                              \
        }                                                                      \
        if (v == zero)                                                         \
            parent = succ = NO_VERTEX;                                         \
        if (d) {                                                               \
            T base = ((const T *)d->values)[i * d->ldv + j];                   \
            T sum = add_##S(alg, base, v);                                     \
            if (!(sum == v && sum != base)) {                                  \
                parent = d->parents[i * d->ldp + j];                           \
                if (cs)                                                        \
                    succ = d->succs[i * d->lds + j];                           \
            }                                                                  \
            v = sum;                                                           \
        }                                                                      \
        cv[j] = v;                                                             \
        cp[j] = parent;                                                        \
        if (cs)                                                                \
            cs[j] = succ;                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
static int witness_relax_##S(int alg, T zero, const planes *c,                 \
                             const planes *d, const planes *a,                 \
                             const planes *b, idx m, idx k, idx n)             \
{                                                                              \
    if (m <= 0 || n <= 0)                                                      \
        return 0;                                                              \
    const T *av = a->values, *bv = b->values;                                  \
    int exact = may_nan_##S(alg, av, a->ldv, bv, b->ldv, m, k, n);             \
    T *acc = malloc((size_t)n * (sizeof(T) + sizeof(K)));                      \
    if (!acc)                                                                  \
        return -1;                                                             \
    K *arg = (K *)(acc + n);                                                   \
    for (idx i = 0; i < m; ++i) {                                              \
        const T *ai = av + i * a->ldv;                                         \
        switch (alg * 2 + exact) {                                             \
        case 0: witness_row_##S(0, 0, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 1: witness_row_##S(0, 1, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 2: witness_row_##S(1, 0, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 3: witness_row_##S(1, 1, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 4: witness_row_##S(2, 0, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 5: witness_row_##S(2, 1, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 6: witness_row_##S(3, 0, ai, bv, b->ldv, k, n, acc, arg); break;  \
        case 7: witness_row_##S(3, 1, ai, bv, b->ldv, k, n, acc, arg); break;  \
        }                                                                      \
        witness_compose_##S(alg, zero, i, c, d, a, b, n, acc, arg);            \
    }                                                                          \
    free(acc);                                                                 \
    return 0;                                                                  \
}                                                                              \
                                                                               \
/* fw_sweeps with pointer carry: where sweep p changes a value, the cell       \
   takes the copied parent of row p and the copied successor of column p. */   \
INLINE void witness_fw_sweeps_##S(int alg, int two, const planes *c, idx n,    \
                                  T *restrict col, T *restrict row,            \
                                  int32_t *restrict row_parents,               \
                                  int32_t *restrict col_succs)                 \
{                                                                              \
    T *v = c->values;                                                          \
    for (idx p = 0; p < n; ++p) {                                              \
        for (idx i = 0; i < n; ++i)                                            \
            col[i] = v[i * c->ldv + p];                                        \
        memcpy(row, v + p * c->ldv, (size_t)n * sizeof(T));                    \
        memcpy(row_parents, c->parents + p * c->ldp,                           \
               (size_t)n * sizeof(int32_t));                                   \
        if (two)                                                               \
            for (idx i = 0; i < n; ++i)                                        \
                col_succs[i] = c->succs[i * c->lds + p];                       \
        for (idx i = 0; i < n; ++i) {                                          \
            T *restrict vi = v + i * c->ldv;                                   \
            int32_t *restrict pi = c->parents + i * c->ldp;                    \
            int32_t *restrict si = two ? c->succs + i * c->lds : NULL;         \
            T x = col[i];                                                      \
            int32_t s = two ? col_succs[i] : NO_VERTEX;                        \
            for (idx j = 0; j < n; ++j) {                                      \
                T old = vi[j];                                                 \
                T relaxed = add_##S(alg, old, mul_##S(alg, x, row[j]));        \
                int moved = relaxed != old;                                    \
                pi[j] = moved ? row_parents[j] : pi[j];                        \
                if (two)                                                       \
                    si[j] = moved ? s : si[j];                                 \
                vi[j] = relaxed;                                               \
            }                                                                  \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
static int witness_fw_##S(int alg, const planes *c, idx n)                     \
{                                                                              \
    if (n <= 0)                                                                \
        return 0;                                                              \
    T *col = malloc(2 * (size_t)n * (sizeof(T) + sizeof(int32_t)));            \
    if (!col)                                                                  \
        return -1;                                                             \
    int32_t *ids = (int32_t *)(col + 2 * n);                                   \
    switch (alg * 2 + (c->succs != NULL)) {                                    \
    case 0: witness_fw_sweeps_##S(0, 0, c, n, col, col + n, ids, ids + n); break; \
    case 1: witness_fw_sweeps_##S(0, 1, c, n, col, col + n, ids, ids + n); break; \
    case 2: witness_fw_sweeps_##S(1, 0, c, n, col, col + n, ids, ids + n); break; \
    case 3: witness_fw_sweeps_##S(1, 1, c, n, col, col + n, ids, ids + n); break; \
    case 4: witness_fw_sweeps_##S(2, 0, c, n, col, col + n, ids, ids + n); break; \
    case 5: witness_fw_sweeps_##S(2, 1, c, n, col, col + n, ids, ids + n); break; \
    case 6: witness_fw_sweeps_##S(3, 0, c, n, col, col + n, ids, ids + n); break; \
    case 7: witness_fw_sweeps_##S(3, 1, c, n, col, col + n, ids, ids + n); break; \
    }                                                                          \
    free(col);                                                                 \
    return 0;                                                                  \
}

DEFINE_KERNELS(double, f64, int64_t)
DEFINE_KERNELS(float, f32, int32_t)

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

/* Both return 0, or -1 when scratch rows cannot be allocated.  c gets fresh
   planes (and succs exactly when a, b and d carry them); witness_relax
   needs k >= 1, as relax does. */
int apspark_witness_relax(int alg, int single, double zero, const planes *c,
                          const planes *d, const planes *a, const planes *b,
                          idx m, idx k, idx n)
{
    if (single)
        return witness_relax_f32(alg, (float)zero, c, d, a, b, m, k, n);
    return witness_relax_f64(alg, zero, c, d, a, b, m, k, n);
}

int apspark_witness_fw(int alg, int single, const planes *c, idx n)
{
    return single ? witness_fw_f32(alg, c, n) : witness_fw_f64(alg, c, n);
}
