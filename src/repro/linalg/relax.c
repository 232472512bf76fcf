/*
 * The compiled kernels behind repro.linalg.payload.DenseOps and
 * repro.linalg.witness.derive_parents.
 *
 *   apspark_relax:   C[i,j] = D[i,j] ⊕ ⊕_p A[i,p] ⊗ B[p,j]
 *                    (D == NULL: C[i,j] = ⊕_p A[i,p] ⊗ B[p,j])
 *   apspark_fw:      for p: C[i,j] = C[i,j] ⊕ (C[i,p] ⊗ C[p,j])
 *   apspark_parents: the parent rows of a closure: its tight edges marked
 *                    for eight sources at a time, then one breadth-first
 *                    search over them per source
 *   apspark_witness_product: the product on witnessed blocks, carrying
 *                    their int32 parent/successor planes (kept only for
 *                    the benchmark ladder's witness_product rung; it
 *                    retires with that rung, ROADMAP [ruler-refresh])
 *
 * for the four numeric algebras (shortest, widest, most-reliable, longest)
 * in double and float (and bool closures, for apspark_parents).  Operands
 * are row-major with a unit inner stride and a row stride in elements
 * (ldX), so strided sub-blocks need no copy; each pointer plane has its own
 * row stride.
 *
 * Every result is bit-identical to the NumPy code it replaces, which stays
 * the fallback and the oracle:
 *   - ⊕ is np.minimum / np.maximum exactly: a NaN first operand wins, else
 *     the first operand on a strict win, else the second (so a NaN second
 *     operand, and the second of two equal zeros);
 *   - the ⊕-sum over p runs in NumPy's reduce order, acc = acc ⊕ term for
 *     p = 1, 2, ..., and is then combined as D ⊕ acc;
 *   - ⊗ is one IEEE operation; the loader compiles with -ffp-contract=off
 *     and no fast-math flag, so no fused multiply-add changes a rounding.
 *   - a parent row is repro.linalg.witness.parent_row's: the same tight-edge
 *     test in the closure's own type, edges in the same CSR order, FIFO.
 * Witnessed products follow repro.linalg.witness.witness_product instead:
 *   - a product cell is the term at the *first* ⊕-winner k* (np.argmin /
 *     np.argmax): a strict win moves it, and the first NaN wins and sticks.
 *     It is not the ⊕-sum, which picks the other zero of a ±0.0 tie;
 *   - pointers compose as P_C = P_B[k*,j], falling back to P_A[i,k*] where
 *     that is NO_VERTEX, and R_C = R_A[i,k*], falling back to R_B[k*,j];
 *     cells whose value equals zero get NO_VERTEX.
 * The inner j loops are contiguous and left for the compiler to vectorize;
 * the tight-edge test is written with the vector extension of GCC and Clang.
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

/* One witnessed block: its value plane and its two int32 pointer planes,
   each with its own row stride. */
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
/* Row i of C from the winners of one row, with its pointers. */               \
INLINE void witness_compose_##S(T zero, idx i, const planes *c,                \
                                const planes *a, const planes *b, idx n,       \
                                const T *acc, const K *arg)                    \
{                                                                              \
    T *cv = (T *)c->values + i * c->ldv;                                       \
    int32_t *cp = c->parents + i * c->ldp, *cs = c->succs + i * c->lds;        \
    const int32_t *ap = a->parents + i * a->ldp, *as = a->succs + i * a->lds;  \
    for (idx j = 0; j < n; ++j) {                                              \
        idx kj = arg[j];                                                       \
        T v = acc[j];                                                          \
        int32_t parent = b->parents[kj * b->ldp + j], succ = as[kj];           \
        if (parent == NO_VERTEX)                                               \
            parent = ap[kj];                                                   \
        if (succ == NO_VERTEX)                                                 \
            succ = b->succs[kj * b->lds + j];                                  \
        if (v == zero)                                                         \
            parent = succ = NO_VERTEX;                                         \
        cv[j] = v;                                                             \
        cp[j] = parent;                                                        \
        cs[j] = succ;                                                          \
    }                                                                          \
}                                                                              \
                                                                               \
static int witness_product_##S(int alg, T zero, const planes *c,               \
                               const planes *a, const planes *b,               \
                               idx m, idx k, idx n)                            \
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
        witness_compose_##S(zero, i, c, a, b, n, acc, arg);                    \
    }                                                                          \
    free(acc);                                                                 \
    return 0;                                                                  \
}

/* The parent rows are derived LANES sources at a time: lane q of a group
   is one source, and bit q of tight[e] tells whether edge e is tight from
   it.  One pass over the edges marks them for the whole group, which is
   what lets the test run as one vector operation per edge (eight doubles
   fill a 512-bit register; four and sixteen lanes measured slower per
   source).  The bits are packed in little-endian byte order. */
#define LANES 8
#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the packed lane bits assume a little-endian target"
#endif

typedef int8_t lane_mask __attribute__((vector_size(LANES)));
typedef double v_f64 __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t m_f64 __attribute__((vector_size(LANES * sizeof(double))));
typedef float v_f32 __attribute__((vector_size(LANES * sizeof(float))));
typedef int32_t m_f32 __attribute__((vector_size(LANES * sizeof(float))));
typedef uint8_t v_b8 __attribute__((vector_size(LANES)));

/* Bit q set for each lane q whose mask is set. */
INLINE uint8_t lane_bits(lane_mask mask)
{
    uint64_t bytes;
    mask &= 1;
    memcpy(&bytes, &mask, sizeof bytes);
    return (uint8_t)(bytes * 0x0102040810204080ULL >> 56);
}

/* parent_row's FIFO breadth-first search from source s over the edges whose
   bit q is set in tight, filling pred: scipy's breadth_first_order, with the
   edges taken in the CSR order of (indptr, indices), so each vertex gets the
   parent it is first reached from and the source keeps NO_VERTEX.  A vertex
   whose row has no tight edge for the lane (bit q of any) is skipped, and the
   search stops once every other vertex is reached; neither changes a
   pointer. */
static void search(idx s, int q, idx n, const idx *indptr,
                   const int32_t *indices, const uint8_t *tight,
                   const uint8_t *any, int32_t *restrict pred,
                   int32_t *restrict queue)
{
    idx head = 0, tail = 1;
    for (idx j = 0; j < n; ++j)
        pred[j] = NO_VERTEX;
    pred[s] = (int32_t)s;               /* reached; reset below */
    queue[0] = (int32_t)s;
    while (head < tail && tail < n) {
        idx p = queue[head++];
        if (!(any[p] >> q & 1))
            continue;
        for (idx e = indptr[p], end = indptr[p + 1]; e < end; e += 8) {
            uint64_t bits;              /* bit q of tight[e .. e + 7] */
            memcpy(&bits, tight + e, sizeof bits);
            bits = bits >> q & 0x0101010101010101ULL;
            if (end - e < 8)
                bits &= ~0ULL >> 8 * (8 - (end - e));
            for (; bits; bits &= bits - 1) {
                idx j = indices[e + __builtin_ctzll(bits) / 8];
                if (pred[j] == NO_VERTEX) {
                    pred[j] = (int32_t)p;
                    queue[tail++] = (int32_t)j;
                }
            }
        }
    }
    pred[s] = NO_VERTEX;
}

/* parent_row's tight test for the LANES sources of a group at once: c =
   dp ⊗ w against t, lane by lane.  tol is tolerance_##S(t): parent_row's
   rtol (1 + |t|) for a finite t, -inf for an infinite one and NaN for NaN.
   So for a finite t the test is |c - t| <= tol (c == t is within it), and
   for an infinite t it is "c is infinite"; in both, c must not be zero.
   Vectors are GCC's and Clang's vector extension: V holds LANES values of T
   and M the masks of their comparisons. */
#define DEFINE_LANE_TEST(T, S, V, M, ABS)                                      \
INLINE T tolerance_##S(T rtol, T t)                                            \
{                                                                              \
    return isfinite(t) ? rtol * (1 + (t < 0 ? -t : t))                         \
                       : isinf(t) ? -INFINITY : NAN;                           \
}                                                                              \
                                                                               \
INLINE M lanes_tight_##S(int alg, T zero, V dp, T w, V t, V tol)               \
{                                                                              \
    V c, wv = w - (V){0};                                                      \
    if (alg == WIDEST) {                                                       \
        M first = (dp != dp) | (dp < wv);                                      \
        c = (V)(((M)dp & first) | ((M)wv & ~first));                           \
    } else                                                                     \
        c = alg == RELIABLE ? dp * wv : dp + wv;                               \
    V diff = (V)((M)(c - t) & ABS), size = (V)((M)c & ABS);                    \
    return ((diff <= tol) | ((size == INFINITY) & (tol == -INFINITY)))         \
           & (c != zero);                                                      \
}

/* A bool closure's tight test: p reached, the edge present, j reachable. */
INLINE uint8_t tolerance_b8(uint8_t rtol, uint8_t t)
{
    (void)rtol, (void)t;
    return 0;
}

INLINE lane_mask lanes_tight_b8(int alg, uint8_t zero, v_b8 dp, uint8_t w,
                                v_b8 t, v_b8 tol)
{
    (void)alg, (void)zero, (void)tol;
    return (dp != 0) & (t != 0) & ((v_b8){0} + w != 0);
}

/* The parent rows of one type T.  For each group of sources, table holds
   the group's closure rows transposed, t then tol for each vertex j
   (table[2 j LANES + q] = D[source q, j]), so that an edge's lanes are one
   vector test; a short last group repeats its first source in the unused
   lanes.  mark_##S fills, for the group, tight[e] for every edge and any[p]
   for every row (bit q set when row p has an edge tight for lane q; it
   follows the edges in the same buffer, and eight spare bytes after it
   cover a search's word read past the last edge); then each lane's source
   is searched. */
#define DEFINE_SEARCH(T, S, V)                                                 \
INLINE void mark_##S(int alg, T zero, const T *table, idx n,                   \
                     const idx *indptr, const int32_t *indices,                \
                     const T *vals, uint8_t *restrict tight,                   \
                     uint8_t *restrict any)                                    \
{                                                                              \
    for (idx p = 0; p < n; ++p) {                                              \
        V dp, t, tol;                                                          \
        uint8_t row = 0;                                                       \
        memcpy(&dp, table + 2 * p * LANES, sizeof dp);                         \
        for (idx e = indptr[p]; e < indptr[p + 1]; ++e) {                      \
            const T *column = table + 2 * (idx)indices[e] * LANES;             \
            memcpy(&t, column, sizeof t);                                      \
            memcpy(&tol, column + LANES, sizeof tol);                          \
            uint8_t bits = lane_bits(__builtin_convertvector(                  \
                lanes_tight_##S(alg, zero, dp, vals[e], t, tol), lane_mask));  \
            tight[e] = bits;                                                   \
            row |= bits;                                                       \
        }                                                                      \
        any[p] = row;                                                          \
    }                                                                          \
}                                                                              \
                                                                               \
/* Whether some vertex other than s has a closure entry but no parent. */     \
INLINE int unreached_##S(T zero, const T *row, idx s, idx n,                   \
                         const int32_t *pred)                                  \
{                                                                              \
    int missing = 0;                                                           \
    for (idx j = 0; j < n; ++j)                                                \
        missing |= (pred[j] == NO_VERTEX) & (row[j] != zero) & (j != s);       \
    return missing;                                                            \
}                                                                              \
                                                                               \
static idx parents_##S(int alg, double zero, double rtol, const T *d,          \
                       idx ldd, idx n, const idx *indptr,                      \
                       const int32_t *indices, const T *vals,                  \
                       const int64_t *sources, idx count, int32_t *out,        \
                       idx ldo)                                                \
{                                                                              \
    uint8_t *tight = malloc((size_t)(indptr[n] + n) + 8);                      \
    int32_t *queue = malloc((size_t)n * sizeof(int32_t) + 1);                  \
    T *table = aligned_alloc(64, ((size_t)n * 2 * LANES * sizeof(T) + 64)      \
                             / 64 * 64);                                       \
    idx status = tight && queue && table ? 0 : -1;                             \
    for (idx r = 0; r < count && !status; r += LANES) {                        \
        int lanes = count - r < LANES ? (int)(count - r) : LANES;              \
        for (idx j = 0; j < n; ++j)                                            \
            for (int q = 0; q < LANES; ++q) {                                  \
                T t = d[sources[r + (q < lanes ? q : 0)] * ldd + j];           \
                table[2 * j * LANES + q] = t;                                  \
                table[(2 * j + 1) * LANES + q] = tolerance_##S((T)rtol, t);    \
            }                                                                  \
        switch (alg) {                                                         \
        case 0: mark_##S(0, (T)zero, table, n, indptr, indices, vals, tight,   \
                         tight + indptr[n]); break;                            \
        case 1: mark_##S(1, (T)zero, table, n, indptr, indices, vals, tight,   \
                         tight + indptr[n]); break;                            \
        case 2: mark_##S(2, (T)zero, table, n, indptr, indices, vals, tight,   \
                         tight + indptr[n]); break;                            \
        case 3: mark_##S(3, (T)zero, table, n, indptr, indices, vals, tight,   \
                         tight + indptr[n]); break;                            \
        }                                                                      \
        for (int q = 0; q < lanes && !status; ++q) {                           \
            idx s = sources[r + q];                                            \
            int32_t *pred = out + (r + q) * ldo;                               \
            search(s, q, n, indptr, indices, tight, tight + indptr[n], pred,   \
                   queue);                                                     \
            if (unreached_##S((T)zero, d + s * ldd, s, n, pred))               \
                status = r + q + 1;                                            \
        }                                                                      \
    }                                                                          \
    free(tight), free(queue), free(table);                                     \
    return status;                                                             \
}

DEFINE_KERNELS(double, f64, int64_t)
DEFINE_KERNELS(float, f32, int32_t)
DEFINE_LANE_TEST(double, f64, v_f64, m_f64, INT64_MAX)
DEFINE_LANE_TEST(float, f32, v_f32, m_f32, INT32_MAX)
DEFINE_SEARCH(double, f64, v_f64)
DEFINE_SEARCH(float, f32, v_f32)
DEFINE_SEARCH(uint8_t, b8, v_b8)

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

/* Returns 0, or -1 when a scratch row cannot be allocated.  c gets fresh
   planes; witness_product needs k >= 1, as relax does. */
int apspark_witness_product(int alg, int single, double zero, const planes *c,
                            const planes *a, const planes *b, idx m, idx k,
                            idx n)
{
    if (single)
        return witness_product_f32(alg, (float)zero, c, a, b, m, k, n);
    return witness_product_f64(alg, zero, c, a, b, m, k, n);
}

/* The parent rows of count sources (type 0: double, 1: float, 2: bool
   closures, whose tight test needs no algebra code).  Returns 0; r + 1 when
   the search from sources[r] left a vertex with a closure entry unreached
   (and stops there); or -1 when the queue cannot be allocated. */
idx apspark_parents(int alg, int type, double zero, double rtol,
                    const void *d, idx ldd, idx n, const idx *indptr,
                    const int32_t *indices, const void *vals,
                    const int64_t *sources, idx count, int32_t *out, idx ldo)
{
    if (type == 2)
        return parents_b8(alg, zero, rtol, d, ldd, n, indptr, indices, vals,
                          sources, count, out, ldo);
    if (type == 1)
        return parents_f32(alg, zero, rtol, d, ldd, n, indptr, indices, vals,
                           sources, count, out, ldo);
    return parents_f64(alg, zero, rtol, d, ldd, n, indptr, indices, vals,
                       sources, count, out, ldo);
}
