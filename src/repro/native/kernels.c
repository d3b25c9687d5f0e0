/* Native kernels for the fused neighbor+link pass, the component
 * merge phase (components, then merges) and the serving assignment
 * scan.
 *
 * Compiled on demand by repro/native/cext.py with the system C
 * compiler and bound through ctypes.  Every routine mirrors a Python
 * reference path bit for bit:
 *
 *   score_block       <-> repro.core.neighbors.SparseTransactionScorer
 *                         .neighbor_rows (same integer intersections,
 *                         same float64 division, same >= theta test),
 *                         restricted to the upper triangle j > row --
 *                         similarity is symmetric, so each pair is
 *                         scored once and mirror_neighbors rebuilds
 *                         the full ascending lists afterwards
 *   mirror_neighbors  <-> the trivial "every list contains both
 *                         directions" property of the reference lists
 *   link_rows         <-> repro.core.links.dense_link_matrix, upper
 *                         triangle (the same integer counts, emitted
 *                         as ascending pair codes i*n + l)
 *   merge_components  <-> repro.core.merge.component_merge_stream
 *                         run on every component, then
 *                         repro.core.merge._replay_streams (same
 *                         lazy-heap selection, same goodness
 *                         arithmetic and association, same
 *                         (-goodness, u id) replay order, same
 *                         heap_ops) -- the whole cluster phase in one
 *                         call
 *   component_labels  <-> repro.core.merge._component_labels' numpy
 *                         path (and scipy's csgraph numbering):
 *                         components labelled by smallest member
 *   assign_block      <-> repro.serve.index.AssignmentIndex
 *                         .assign_with_scores (prefix-filtered
 *                         candidates, exact intersections, same
 *                         float64 inter/union >= theta test, same
 *                         first-max argmax over the normalised
 *                         cluster counts)
 *
 * Transaction/item ids travel as int32 (halving the bandwidth of the
 * randomly-accessed hot arrays); callers guarantee n < 2^31.
 *
 * IEEE-754 double arithmetic with the default rounding mode is assumed
 * and required -- build WITHOUT -ffast-math.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

typedef int64_t i64;
typedef int32_t i32;

/* ------------------------------------------------------------------ */
/* sorting helpers                                                     */
/* ------------------------------------------------------------------ */

static int i32_cmp(const void *a, const void *b)
{
    i32 x = *(const i32 *)a, y = *(const i32 *)b;
    return (x > y) - (x < y);
}

/* first index in arr[lo, hi) with arr[idx] > key (arrays ascending) */
static i64 upper_bound_i32(const i32 *arr, i64 lo, i64 hi, i32 key)
{
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (arr[mid] <= key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* 1. fused block scoring: CSR transactions -> sorted neighbor lists   */
/* ------------------------------------------------------------------ */

/* Score rows [start, stop) of the transaction similarity matrix and
 * emit each row's ascending UPPER-TRIANGLE neighbor indices (j > row)
 * at threshold theta; mirror_neighbors rebuilds the full lists.
 *
 * indptr/indices      CSR of transactions -> sorted item codes
 * t_indptr/t_indices  transpose CSR of items -> ascending txn ids
 * sizes               |T_i| per transaction
 * acc, touched        caller int32 workspaces of length n; acc must
 *                     arrive zeroed (it is returned zeroed)
 * out_indptr          length stop-start+1
 * out_indices, cap    neighbor-index buffer and its capacity
 *
 * Intersection counts are accumulated per row by walking the transpose
 * lists of the row's items -- only transactions sharing an item are
 * touched, the sparse-product work of the scipy scorer without ever
 * materialising the product.  The lists are ascending, so a binary
 * search per item skips straight to the j > row suffix: similarity is
 * symmetric and each unordered pair is therefore scored exactly once,
 * with the identical integer intersection count (every shared item
 * still contributes exactly +1).  A conservative prefilter skips the
 * division for pairs that cannot clear theta; survivors get the exact
 * float64 (double)inter / (double)denom >= theta test, matching the
 * reference bit for bit (theta > 0 is a precondition: theta == 0 makes
 * everyone a neighbor and is answered by the Python path directly).
 *
 * Returns the total neighbors written, or -(needed) when cap is too
 * small -- counting continues so the caller can retry with the exact
 * size in one round trip.
 */
long long score_block(
    const i64 *indptr, const i32 *indices,
    const i64 *t_indptr, const i32 *t_indices,
    const i32 *sizes,
    i64 n, i64 start, i64 stop,
    double theta, i64 overlap,
    i32 *acc, i32 *touched,
    i64 *out_indptr,
    i32 *out_indices, i64 cap)
{
    i64 total = 0;
    int overflow = 0;
    out_indptr[0] = 0;
    for (i64 row = start; row < stop; row++) {
        i64 n_touched = 0;
        i64 p = indptr[row], p_end = indptr[row + 1];
        if (p < p_end) {
            /* first item: every transaction in its suffix is fresh,
             * so skip the acc==0 test entirely */
            i64 item = indices[p++];
            i64 q = upper_bound_i32(
                t_indices, t_indptr[item], t_indptr[item + 1], (i32)row
            );
            for (; q < t_indptr[item + 1]; q++) {
                i32 j = t_indices[q];
                acc[j] = 1;
                touched[n_touched++] = j;
            }
        }
        for (; p < p_end; p++) {
            i64 item = indices[p];
            i64 q = upper_bound_i32(
                t_indices, t_indptr[item], t_indptr[item + 1], (i32)row
            );
            for (; q < t_indptr[item + 1]; q++) {
                i32 j = t_indices[q];
                i32 a = acc[j];
                /* branchless: the store is unconditional, the cursor
                 * only advances for first touches (compiles to cmov /
                 * setcc instead of a mispredict-prone branch) */
                touched[n_touched] = j;
                n_touched += (a == 0);
                acc[j] = a + 1;
            }
        }
        i64 sa = sizes[row];
        i64 row_deg = 0;
        i32 *dst = out_indices + total;
        for (i64 t = 0; t < n_touched; t++) {
            i32 j = touched[t];
            i64 inter = acc[j];
            acc[j] = 0;
            i64 sb = sizes[j];
            double denom;
            if (overlap) {
                denom = (double)(sa < sb ? sa : sb);
                if ((double)inter < theta * denom - 1e-6)
                    continue;
            } else {
                denom = (double)(sa + sb - inter);
                if ((1.0 + theta) * (double)inter
                        < theta * (double)(sa + sb) - 1e-6)
                    continue;
            }
            if ((double)inter / denom >= theta) {
                if (!overflow && total + row_deg < cap)
                    dst[row_deg] = j;
                row_deg++;
            }
        }
        if (!overflow && total + row_deg > cap)
            overflow = 1;
        if (!overflow && row_deg > 1)
            qsort(dst, (size_t)row_deg, sizeof(i32), i32_cmp);
        total += row_deg;
        out_indptr[row - start + 1] = total;
    }
    if (overflow)
        return -total;
    return total;
}

/* Rebuild the full ascending neighbor lists from the upper-triangle
 * ones: full[i] = {j < i : i in upper[j]} ++ upper[i].  The outer loop
 * runs i ascending and upper lists are ascending, so every full list
 * comes out ascending without any sort -- mirrored entries j < i land
 * before i's own suffix entries, both in increasing order.
 *
 * full_indptr has length n+1, full_indices capacity 2 * total.
 * Returns the full total, or -1 on allocation failure.
 */
long long mirror_neighbors(
    const i64 *up_indptr, const i32 *up_indices, i64 n,
    i64 *full_indptr, i32 *full_indices)
{
    i64 *cur = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (!cur)
        return -1;
    for (i64 i = 0; i < n; i++)
        cur[i] = up_indptr[i + 1] - up_indptr[i];
    i64 total = up_indptr[n];
    for (i64 p = 0; p < total; p++)
        cur[up_indices[p]]++;
    full_indptr[0] = 0;
    for (i64 i = 0; i < n; i++) {
        full_indptr[i + 1] = full_indptr[i] + cur[i];
        cur[i] = full_indptr[i];
    }
    for (i64 i = 0; i < n; i++) {
        for (i64 p = up_indptr[i]; p < up_indptr[i + 1]; p++) {
            i32 j = up_indices[p];
            full_indices[cur[i]++] = j;
            full_indices[cur[j]++] = (i32)i;
        }
    }
    free(cur);
    return full_indptr[n];
}

/* ------------------------------------------------------------------ */
/* 2. Figure 4 links, one output row at a time                         */
/* ------------------------------------------------------------------ */

/* Link counts of rows [*next_row, n) of a symmetric neighbor graph
 * held as ascending CSR lists: Gustavson's sparse A*A, restricted to
 * the upper triangle.  For row i, every neighbor j of i adds +1 to
 * acc[l] for each of its own neighbors l > i; the touched columns,
 * sorted, give the codes i*n + l with their counts acc[l].  The
 * increments are the Figure 4 pair increments regrouped by the pair's
 * smaller end, so the counts are exactly dense_link_matrix's.
 *
 * cursor[j] (caller int64 workspace, arriving as indptr[j]) skips the
 * entries l <= i of j's list; rows run ascending, so each cursor only
 * moves forward and the skips cost O(nnz) over the whole call.
 * acc (int32, length n) must arrive zeroed and is returned zeroed;
 * touched is an int32 workspace of length n + 1.
 *
 * A row starts only while out_codes / out_counts have room for its
 * n - 1 - i possible pairs: the call returns the pairs written and
 * leaves the first row it did not run in *next_row, so the caller
 * resumes with a fresh buffer (same cursor, acc and touched) and the
 * memory stays O(n + pairs) rather than O(sum of m^2).
 */
long long link_rows(
    const i64 *indptr, const i32 *indices, i64 n,
    i64 *cursor, i32 *acc, i32 *touched,
    i64 *out_codes, i64 *out_counts, i64 cap, i64 *next_row)
{
    i64 written = 0;
    i64 i = *next_row;
    for (; i < n && cap - written >= n - 1 - i; i++) {
        i64 n_touched = 0;
        for (i64 p = indptr[i]; p < indptr[i + 1]; p++) {
            i32 j = indices[p];
            i64 q = cursor[j], end = indptr[j + 1];
            while (q < end && indices[q] <= i)
                q++;
            cursor[j] = q;
            for (; q < end; q++) {
                i32 l = indices[q];
                i32 a = acc[l];
                /* branchless first-touch record, as in score_block */
                touched[n_touched] = l;
                n_touched += (a == 0);
                acc[l] = a + 1;
            }
        }
        i64 base = i * n;
        if (n_touched * 8 > n - i) {
            /* a dense row: one scan of its columns beats the sort */
            for (i64 l = i + 1; l < n; l++) {
                if (acc[l]) {
                    out_codes[written] = base + l;
                    out_counts[written++] = acc[l];
                    acc[l] = 0;
                }
            }
            continue;
        }
        if (n_touched > 1)
            qsort(touched, (size_t)n_touched, sizeof(i32), i32_cmp);
        for (i64 t = 0; t < n_touched; t++) {
            i32 l = touched[t];
            out_codes[written] = base + l;
            out_counts[written++] = acc[l];
            acc[l] = 0;
        }
    }
    *next_row = i;
    return written;
}

/* ------------------------------------------------------------------ */
/* 2b. prefix-filtered serving assignment                              */
/* ------------------------------------------------------------------ */

/* The smallest overlap o with the float64 test o / s >= theta that
 * decides a neighbor, or s + 1 when no o <= s passes (s == 0 divides
 * by 1, giving 1).  Starts at ceil(theta * s) and steps by +-1:
 * correctly rounded division is monotone in o, so "o passes and o - 1
 * fails" pins the exact boundary.  Mirrors repro.serve.index
 * .min_overlap value for value. */
static i64 min_overlap(i64 s, double theta)
{
    double d = s > 0 ? (double)s : 1.0;
    double start = ceil(theta * (double)s);
    i64 o = start < 0.0 ? 0 : start > (double)(s + 1) ? s + 1 : (i64)start;
    while (o <= s && (double)o / d < theta)
        o++;
    while (o > 0 && (double)(o - 1) / d >= theta)
        o--;
    return o;
}

/* ascending sort of one short query row: insertion sort for the
 * typical 10-20 items, qsort (O(m log m)) past that */
static void sort_row(i32 *row, i64 m)
{
    if (m > 32) {
        qsort(row, (size_t)m, sizeof(i32), i32_cmp);
        return;
    }
    for (i64 i = 1; i < m; i++) {
        i32 v = row[i];
        i64 j = i - 1;
        while (j >= 0 && row[j] > v) {
            row[j + 1] = row[j];
            j--;
        }
        row[j + 1] = v;
    }
}

/* Assign a CSR-encoded query block against the prefix-filtered index:
 * candidate gather over the prefix postings, exact verification,
 * Jaccard threshold test and best-cluster argmax, one pass per point.
 *
 * Item ids are ranks: columns are numbered by ascending representative
 * document frequency, so a row sorted by id is sorted rarest first.
 * By the prefix lemma (AllPairs, PPJoin) two sets with fl(inter /
 * union) >= theta share an item inside each set's first
 * |set| - min_overlap(|set|) + 1 items; out-of-vocabulary query items
 * rank before every indexed item (no representative holds them), so
 * the in-vocabulary part of a query's prefix is that length minus its
 * OOV count, and a point left with no prefix item is an outlier.
 *
 * q_indptr/q_items    CSR of query points -> in-vocabulary item ids;
 *                     each row of q_items is sorted in place (the
 *                     wrapper passes a private copy)
 * q_sizes             true item count per point (OOV items enlarge
 *                     the union without appearing in q_items)
 * pre_indptr/pre_reps item -> ascending ids of the representatives
 *                     whose prefix holds the item
 * rep_indptr/rep_items representative -> its items (the verification
 *                     side; |rep| is the row length)
 * rep_cluster         representative -> cluster id
 * normalisers         (|L_c| + 1)^f per cluster
 * mark                vocab-sized byte workspace, arrives zeroed
 *                     (returned zeroed)
 * seen, touched       int32 workspaces; seen has length n_reps and
 *                     must arrive zeroed (it is returned zeroed);
 *                     touched has length n_reps + 1 -- the branchless
 *                     first-touch write lands in the spare slot when
 *                     every representative is already touched
 * ccounts, ctouched   i64/i32 workspaces of length n_clusters;
 *                     ccounts must arrive zeroed (returned zeroed)
 * out_labels/out_best winning cluster (-1 = outlier) and its
 *                     normalised score (0.0 for outliers) per point
 *
 * theta > 0 is a precondition (theta == 0 makes every representative
 * a neighbor and is answered by the Python path with constant
 * counts).  A candidate shares a prefix item, so inter >= 1 and union
 * >= 1: the float64 quotient matches the reference's guarded division
 * bit for bit, and every pair the prefixes skip fails the test there
 * too.  The argmax scans only the touched clusters: an untouched
 * cluster scores exactly 0.0 while any neighbor count >= 1 divided by
 * a positive normaliser scores > 0, so the global first-max winner is
 * always among the touched clusters -- ties break toward the lowest
 * cluster id, np.argmax order.  (If every touched cluster still
 * scores 0.0 -- a degenerate normaliser overflowing to inf -- the
 * global argmax is cluster 0, restored below.)
 *
 * Returns the number of candidate pairs verified.
 */
long long assign_block(
    const i64 *q_indptr, i32 *q_items, const i64 *q_sizes, i64 b,
    const i64 *pre_indptr, const i32 *pre_reps,
    const i64 *rep_indptr, const i32 *rep_items,
    const i32 *rep_cluster, const double *normalisers, double theta,
    unsigned char *mark, i32 *seen, i32 *touched,
    i64 *ccounts, i32 *ctouched,
    i64 *out_labels, double *out_best)
{
    long long verified = 0;
    for (i64 i = 0; i < b; i++) {
        i64 p = q_indptr[i], m = q_indptr[i + 1] - p;
        i32 *row = q_items + p;
        i64 qsize = q_sizes[i];
        /* the prefix length qsize - o + 1 minus the qsize - m OOV items
         * ranked first (an empty point gets o = 1, hence no probe) */
        i64 probe = m - min_overlap(qsize, theta) + 1;
        out_labels[i] = -1;
        out_best[i] = 0.0;
        if (probe <= 0)
            continue;
        sort_row(row, m);
        i64 n_touched = 0;
        for (i64 t = 0; t < probe; t++) {
            i64 item = row[t];
            for (i64 q = pre_indptr[item]; q < pre_indptr[item + 1]; q++) {
                i32 r = pre_reps[q];
                i32 a = seen[r];
                /* branchless first-touch tracking (see score_block) */
                touched[n_touched] = r;
                n_touched += (a == 0);
                seen[r] = 1;
            }
        }
        if (n_touched == 0)
            continue;
        verified += n_touched;
        for (i64 t = 0; t < m; t++)
            mark[row[t]] = 1;
        i64 n_clu = 0;
        for (i64 t = 0; t < n_touched; t++) {
            i32 r = touched[t];
            seen[r] = 0;
            i64 lo = rep_indptr[r], hi = rep_indptr[r + 1];
            i64 inter = 0;
            for (i64 j = lo; j < hi; j++)
                inter += mark[rep_items[j]];
            i64 uni = (hi - lo) + qsize - inter;
            if ((double)inter / (double)uni >= theta) {
                i32 c = rep_cluster[r];
                if (ccounts[c] == 0)
                    ctouched[n_clu++] = c;
                ccounts[c]++;
            }
        }
        for (i64 t = 0; t < m; t++)
            mark[row[t]] = 0;
        double best = 0.0;
        i64 lab = -1;
        for (i64 t = 0; t < n_clu; t++) {
            i32 c = ctouched[t];
            double s = (double)ccounts[c] / normalisers[c];
            ccounts[c] = 0;
            if (s > best || (s == best && (lab < 0 || (i64)c < lab))) {
                best = s;
                lab = c;
            }
        }
        if (lab >= 0 && best == 0.0)
            lab = 0; /* all scores 0.0: np.argmax picks index 0 */
        out_labels[i] = lab;
        out_best[i] = best;
    }
    return verified;
}


/* ------------------------------------------------------------------ */
/* 3. component merge inner loop                                       */
/* ------------------------------------------------------------------ */

/* Cross-link rows: per-slot arrays of (partner, count), sorted by
 * partner id.  Deletion is lazy -- dead partners are skipped on read --
 * and appends only ever add the freshly created slot id, which exceeds
 * every id already present, so the sorted invariant is append-safe.
 * A buffer is either a slice of the workspace arena (owned = 0) or its
 * own allocation (owned = 1); only the latter is ever freed. */
typedef struct {
    i64 partner;
    double count;
} Link;

typedef struct {
    Link *e;
    i64 len, cap;
    int owned;
} Row;

/* Binary min-heap of (neg_goodness, partner) entries under the same
 * lexicographic order as Python's (float, int) tuple comparison.  Only
 * the pop sequence is observable, and the minimum of the live multiset
 * is representation-independent, so matching heapq's internal layout
 * is not required -- but the sift routines mirror it anyway. */
typedef struct {
    double neg;
    i64 partner;
} HeapEnt;

typedef struct {
    HeapEnt *e;
    i64 len, cap;
    int owned;
} Heap;

/* One workspace for a whole merge_components call: the per-slot
 * arrays sized for the largest component, the token heap, and two
 * arenas that hand out the row and local-heap buffers.  Components
 * reset it instead of allocating.  Each arena holds 4 entries per pair
 * of the largest component (plus 2 per slot): its initial rows take 2
 * and its initial heaps 4, with room to grow in place, and the rest
 * goes to merged rows and heaps.  A request past that falls back to
 * malloc, so the arenas never grow however long the merge streams
 * run. */
typedef struct {
    i64 *size;
    unsigned char *alive;
    double *best_token;
    Row *rows;
    Heap *local;
    Heap heap;
    Link *links;
    HeapEnt *ents;
    i64 arena_cap, links_used, ents_used;
} Work;

static int link_cmp(const void *a, const void *b)
{
    i64 x = ((const Link *)a)->partner, y = ((const Link *)b)->partner;
    return (x > y) - (x < y);
}

static Link *take_links(Work *ws, i64 count, int *owned)
{
    *owned = 0;
    if (count == 0)
        return NULL;
    if (ws->links_used + count <= ws->arena_cap) {
        Link *e = ws->links + ws->links_used;
        ws->links_used += count;
        return e;
    }
    *owned = 1;
    return (Link *)malloc((size_t)count * sizeof(Link));
}

static HeapEnt *take_ents(Work *ws, i64 count, int *owned)
{
    *owned = 0;
    if (count == 0)
        return NULL;
    if (ws->ents_used + count <= ws->arena_cap) {
        HeapEnt *e = ws->ents + ws->ents_used;
        ws->ents_used += count;
        return e;
    }
    *owned = 1;
    return (HeapEnt *)malloc((size_t)count * sizeof(HeapEnt));
}

static void row_release(Row *r)
{
    if (r->owned)
        free(r->e);
    r->e = NULL;
    r->len = r->cap = 0;
    r->owned = 0;
}

static void heap_release(Heap *h)
{
    if (h->owned)
        free(h->e);
    h->e = NULL;
    h->len = h->cap = 0;
    h->owned = 0;
}

/* A full row first drops its dead partners, which are never read
 * again; a row still full doubles, an arena slice moving to its own
 * allocation. */
static int row_push(Row *r, i64 partner, double count,
                    const unsigned char *alive)
{
    if (r->len == r->cap) {
        i64 kept = 0;
        for (i64 t = 0; t < r->len; t++)
            if (alive[r->e[t].partner])
                r->e[kept++] = r->e[t];
        r->len = kept;
    }
    if (r->len == r->cap) {
        i64 cap = r->cap ? r->cap * 2 : 4;
        Link *e;
        if (r->owned)
            e = (Link *)realloc(r->e, (size_t)cap * sizeof(Link));
        else {
            e = (Link *)malloc((size_t)cap * sizeof(Link));
            if (e && r->len)
                memcpy(e, r->e, (size_t)r->len * sizeof(Link));
        }
        if (!e)
            return -1;
        r->e = e;
        r->cap = cap;
        r->owned = 1;
    }
    r->e[r->len].partner = partner;
    r->e[r->len].count = count;
    r->len++;
    return 0;
}

static int heap_ent_lt(HeapEnt a, HeapEnt b)
{
    if (a.neg < b.neg)
        return 1;
    if (a.neg > b.neg)
        return 0;
    return a.partner < b.partner;
}

static void heap_siftdown(Heap *h, i64 startpos, i64 pos)
{
    HeapEnt item = h->e[pos];
    while (pos > startpos) {
        i64 parent = (pos - 1) >> 1;
        if (heap_ent_lt(item, h->e[parent])) {
            h->e[pos] = h->e[parent];
            pos = parent;
        } else
            break;
    }
    h->e[pos] = item;
}

static void heap_siftup(Heap *h, i64 pos)
{
    i64 endpos = h->len;
    i64 startpos = pos;
    HeapEnt item = h->e[pos];
    i64 child = 2 * pos + 1;
    while (child < endpos) {
        i64 right = child + 1;
        if (right < endpos && !heap_ent_lt(h->e[child], h->e[right]))
            child = right;
        h->e[pos] = h->e[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h->e[pos] = item;
    heap_siftdown(h, startpos, pos);
}

static void heap_heapify(Heap *h)
{
    for (i64 i = h->len / 2 - 1; i >= 0; i--)
        heap_siftup(h, i);
}

static int heap_push(Heap *h, double neg, i64 partner)
{
    if (h->len == h->cap) {
        i64 cap = h->cap ? h->cap * 2 : 8;
        HeapEnt *e;
        if (h->owned)
            e = (HeapEnt *)realloc(h->e, (size_t)cap * sizeof(HeapEnt));
        else {
            e = (HeapEnt *)malloc((size_t)cap * sizeof(HeapEnt));
            if (e && h->len)
                memcpy(e, h->e, (size_t)h->len * sizeof(HeapEnt));
        }
        if (!e)
            return -1;
        h->e = e;
        h->cap = cap;
        h->owned = 1;
    }
    h->e[h->len].neg = neg;
    h->e[h->len].partner = partner;
    h->len++;
    heap_siftdown(h, 0, h->len - 1);
    return 0;
}

static HeapEnt heap_pop(Heap *h)
{
    HeapEnt last = h->e[--h->len];
    if (h->len == 0)
        return last;
    HeapEnt ret = h->e[0];
    h->e[0] = last;
    heap_siftup(h, 0);
    return ret;
}

/* goodness of merging clusters of sizes ni, nj with `count` cross
 * links.  ptable[k] = k^(1+2f), computed Python-side by the exact
 * scalar pow of repro.core.goodness.PowerTable; the denominator keeps
 * the reference association (P[lo+hi] - P[lo]) - P[hi] with lo <= hi. */
static double goodness_eval(double count, i64 ni, i64 nj,
                            const double *ptable, i64 naive)
{
    if (naive)
        return count;
    i64 lo, hi;
    if (ni > nj) {
        lo = nj;
        hi = ni;
    } else {
        lo = ni;
        hi = nj;
    }
    double denom = (ptable[lo + hi] - ptable[lo]) - ptable[hi];
    if (denom <= 0.0)
        return count > 0.0 ? INFINITY : 0.0;
    return count / denom;
}

/* Agglomerate one connected component to exhaustion.
 *
 * Mirrors repro.core.merge.component_merge_stream statement for
 * statement: slots s..2s-2 are the merged clusters in creation order,
 * selection is the doubly-lazy token scheme (local heaps of immutable
 * (-g, partner) entries, a global token heap, best_token lower
 * bounds), and heap_ops counts exactly what the Python loop counts.
 *
 * `ws` must hold 2s-1 slots; merge_one leaves it reset for the next
 * component.  Outputs (capacity s-1 each) receive the merge stream in
 * local slot ids; returns the number of merges, or -1 on allocation
 * failure.
 */
static long long merge_one(
    Work *ws,
    i64 s,
    const i64 *sizes_in,
    i64 n_pairs,
    const i64 *pair_lo, const i64 *pair_hi, const double *pair_count,
    const double *ptable,
    i64 naive,
    i64 *out_left, i64 *out_right, double *out_goodness, i64 *out_sizes,
    i64 *heap_ops_out)
{
    i64 n_slots = 2 * s - 1;
    long long result = -1;
    i64 n_merges = 0;
    long long heap_ops = 0;
    i64 *size = ws->size;
    unsigned char *alive = ws->alive;
    double *best_token = ws->best_token;
    Row *rows = ws->rows;
    Heap *local = ws->local;
    Heap *heap = &ws->heap;

    ws->links_used = ws->ents_used = 0;
    heap->len = 0;
    for (i64 x = 0; x < n_slots; x++) {
        size[x] = x < s ? sizes_in[x] : 0;
        alive[x] = x < s;
        best_token[x] = -INFINITY;
    }

    /* initial rows and local heaps: exact-size arena slices */
    for (i64 p = 0; p < n_pairs; p++) {
        rows[pair_lo[p]].cap++;
        rows[pair_hi[p]].cap++;
    }
    for (i64 x = 0; x < s; x++) {
        i64 deg = rows[x].cap;
        rows[x].e = take_links(ws, deg, &rows[x].owned);
        /* room for as many pushes as entries before a heap grows */
        local[x].e = take_ents(ws, 2 * deg, &local[x].owned);
        local[x].cap = 2 * deg;
        if (deg && (!rows[x].e || !local[x].e))
            goto done;
    }
    for (i64 p = 0; p < n_pairs; p++) {
        i64 a = pair_lo[p], b = pair_hi[p];
        double c = pair_count[p];
        double neg = -goodness_eval(c, size[a], size[b], ptable, naive);
        rows[a].e[rows[a].len].partner = b;
        rows[a].e[rows[a].len].count = c;
        rows[a].len++;
        rows[b].e[rows[b].len].partner = a;
        rows[b].e[rows[b].len].count = c;
        rows[b].len++;
        local[a].e[local[a].len].neg = neg;
        local[a].e[local[a].len].partner = b;
        local[a].len++;
        local[b].e[local[b].len].neg = neg;
        local[b].e[local[b].len].partner = a;
        local[b].len++;
    }
    /* pairs in ascending code order leave every row sorted already */
    for (i64 x = 0; x < s; x++) {
        Row *r = &rows[x];
        for (i64 t = 1; t < r->len; t++) {
            if (r->e[t - 1].partner > r->e[t].partner) {
                qsort(r->e, (size_t)r->len, sizeof(Link), link_cmp);
                break;
            }
        }
    }

    /* token seeding: one token per slot whose best goodness > 0 */
    if (heap->cap < s) {
        HeapEnt *e = (HeapEnt *)realloc(heap->e, (size_t)s * sizeof(HeapEnt));
        if (!e)
            goto done;
        heap->e = e;
        heap->cap = s;
        heap->owned = 1;
    }
    for (i64 x = 0; x < s; x++) {
        Heap *h = &local[x];
        if (h->len == 0)
            continue;
        heap_heapify(h);
        double head_neg = h->e[0].neg;
        if (head_neg < 0.0) {
            heap->e[heap->len].neg = head_neg;
            heap->e[heap->len].partner = x;
            heap->len++;
            best_token[x] = -head_neg;
        }
    }
    heap_heapify(heap);
    heap_ops = heap->len;

    i64 alive_count = s;
    i64 next_slot = s;
    while (alive_count > 1 && heap->len > 0) {
        HeapEnt tok = heap_pop(heap);
        heap_ops++;
        i64 u = tok.partner;
        double neg_g = tok.neg;
        if (!alive[u])
            continue;
        Heap *hu = &local[u];
        while (hu->len > 0 && !alive[hu->e[0].partner]) {
            heap_pop(hu);
            heap_ops++;
        }
        if (hu->len == 0) {
            best_token[u] = -INFINITY;
            continue;
        }
        double head_neg = hu->e[0].neg;
        if (head_neg != neg_g) {
            /* stale token: u's best changed since the push; re-arm */
            if (head_neg < 0.0) {
                if (heap_push(heap, head_neg, u) != 0)
                    goto done;
                heap_ops++;
                best_token[u] = -head_neg;
            } else
                best_token[u] = -INFINITY;
            continue;
        }
        i64 v = hu->e[0].partner;
        i64 w = next_slot++;

        /* row_w = merge(row_u \ {v}, row_v \ {u}) over live partners,
         * u's contribution first in the float sum -- the reference's
         * dict(row_u)-then-add-row_v order */
        Row *ru = &rows[u], *rv = &rows[v];
        Row rw = {NULL, 0, 0, 0};
        rw.cap = ru->len + rv->len;
        rw.e = take_links(ws, rw.cap, &rw.owned);
        if (rw.cap && !rw.e)
            goto done;
        i64 iu = 0, iv = 0;
        for (;;) {
            while (iu < ru->len
                   && (!alive[ru->e[iu].partner] || ru->e[iu].partner == v))
                iu++;
            while (iv < rv->len
                   && (!alive[rv->e[iv].partner] || rv->e[iv].partner == u))
                iv++;
            if (iu >= ru->len && iv >= rv->len)
                break;
            if (iv >= rv->len
                || (iu < ru->len && ru->e[iu].partner < rv->e[iv].partner)) {
                rw.e[rw.len++] = ru->e[iu++];
            } else if (iu >= ru->len
                       || rv->e[iv].partner < ru->e[iu].partner) {
                rw.e[rw.len++] = rv->e[iv++];
            } else {
                rw.e[rw.len].partner = ru->e[iu].partner;
                rw.e[rw.len].count = ru->e[iu].count + rv->e[iv].count;
                rw.len++;
                iu++;
                iv++;
            }
        }
        row_release(ru);
        row_release(rv);
        rows[w] = rw;
        heap_release(&local[u]);
        heap_release(&local[v]);
        alive[u] = 0;
        alive[v] = 0;
        alive[w] = 1;
        i64 size_w = size[u] + size[v];
        size[w] = size_w;
        alive_count--;

        out_left[n_merges] = u;
        out_right[n_merges] = v;
        out_goodness[n_merges] = -neg_g;
        out_sizes[n_merges] = size_w;
        n_merges++;

        /* partner updates: x gains w (dead u/v entries stay, skipped
         * lazily); local_w collects (neg, x) then heapifies */
        Heap *hw = &local[w];
        hw->e = take_ents(ws, rw.len, &hw->owned);
        if (rw.len && !hw->e)
            goto done;
        hw->cap = rw.len;
        for (i64 t = 0; t < rows[w].len; t++) {
            i64 x = rows[w].e[t].partner;
            double c = rows[w].e[t].count;
            if (row_push(&rows[x], w, c, alive) != 0)
                goto done;
            double g = goodness_eval(c, size[x], size_w, ptable, naive);
            double neg = -g;
            if (heap_push(&local[x], neg, w) != 0)
                goto done;
            hw->e[hw->len].neg = neg;
            hw->e[hw->len].partner = x;
            hw->len++;
            if (g > best_token[x] && g > 0.0) {
                if (heap_push(heap, neg, x) != 0)
                    goto done;
                best_token[x] = g;
                heap_ops++;
            }
        }
        heap_ops += 1 + rows[w].len;
        if (hw->len > 0) {
            heap_heapify(hw);
            double hn = hw->e[0].neg;
            if (hn < 0.0) {
                if (heap_push(heap, hn, w) != 0)
                    goto done;
                best_token[w] = -hn;
                heap_ops++;
            }
        }
    }
    *heap_ops_out = heap_ops;
    result = n_merges;

done:
    for (i64 x = 0; x < n_slots; x++) {
        row_release(&rows[x]);
        heap_release(&local[x]);
    }
    return result;
}

/* Global id of local slot `local` of component c: an initial cluster
 * id below the component's slot count s, else the id the replay handed
 * to the component's (local - s)-th merge. */
static i64 replay_gid(i64 local, i64 s, const i64 *gids, const i64 *merged)
{
    return local < s ? gids[local] : merged[local - s];
}

/* The whole Figure 3 cluster phase over packed components.
 *
 * Component c owns slots [slot_off[c], slot_off[c+1]) of sizes /
 * global_ids (ascending initial-cluster ids) and pairs
 * [pair_off[c], pair_off[c+1]) of the local pair arrays.  Each
 * component runs merge_one to exhaustion into the concatenated stream
 * buffers (component c's stream starts at slot_off[c] - c, capacity
 * s - 1), then the streams are replayed in
 * repro.core.merge._replay_streams order: a heap over stream heads
 * keyed (-goodness, u global id) -- the reference's selection rule; a
 * stream's goodness is not monotone, so this cannot be a sort --
 * handing out merged ids m, m+1, ... in replay order until k of the m
 * initial clusters remain, or every stream is exhausted
 * (stats[1] = stopped_early).
 *
 * out_left/out_right/out_goodness/out_sizes receive the replayed
 * merges in global ids, out_root (m entries) the id of the final
 * cluster holding each initial cluster, stream_len / stream_heap_ops
 * each component's stream length and inner-loop heap_ops, and
 * stats[0] the total heap_ops (inner loops plus replay).  Returns the
 * number of replayed merges, or -1 on allocation failure.
 */
long long merge_components(
    i64 n_comp,
    const i64 *slot_off, const i64 *pair_off,
    const i64 *sizes, const i64 *global_ids,
    const i64 *pair_lo, const i64 *pair_hi, const double *pair_count,
    const double *ptable, i64 naive, i64 k, i64 m,
    i64 *stream_left, i64 *stream_right, double *stream_goodness,
    i64 *stream_sizes, i64 *stream_len, i64 *stream_heap_ops,
    i64 *out_left, i64 *out_right, double *out_goodness, i64 *out_sizes,
    i64 *out_root, i64 *stats)
{
    long long result = -1;
    long long heap_ops = 0;
    i64 cap = slot_off[n_comp] - n_comp; /* most merges any run makes */
    i64 *merged = (i64 *)malloc((size_t)(cap > 0 ? cap : 1) * sizeof(i64));
    i64 *pos = (i64 *)calloc((size_t)(n_comp > 0 ? n_comp : 1), sizeof(i64));
    /* component of every id a stream head can name */
    i64 *comp_of = (i64 *)malloc((size_t)(m + cap + 1) * sizeof(i64));
    i64 *parent = (i64 *)malloc((size_t)(m + cap + 1) * sizeof(i64));
    Heap heap = {NULL, 0, 0, 1};
    /* one workspace for every component, sized for the largest */
    i64 max_s = 1, max_pairs = 0;
    for (i64 c = 0; c < n_comp; c++) {
        if (slot_off[c + 1] - slot_off[c] > max_s)
            max_s = slot_off[c + 1] - slot_off[c];
        if (pair_off[c + 1] - pair_off[c] > max_pairs)
            max_pairs = pair_off[c + 1] - pair_off[c];
    }
    size_t n_slots = (size_t)(2 * max_s - 1);
    Work ws = {NULL, NULL, NULL, NULL, NULL, {NULL, 0, 0, 1}, NULL, NULL,
               4 * max_pairs + 2 * max_s, 0, 0};
    ws.size = (i64 *)malloc(n_slots * sizeof(i64));
    ws.alive = (unsigned char *)malloc(n_slots);
    ws.best_token = (double *)malloc(n_slots * sizeof(double));
    ws.rows = (Row *)calloc(n_slots, sizeof(Row));
    ws.local = (Heap *)calloc(n_slots, sizeof(Heap));
    ws.links = (Link *)malloc((size_t)ws.arena_cap * sizeof(Link));
    ws.ents = (HeapEnt *)malloc((size_t)ws.arena_cap * sizeof(HeapEnt));
    if (!merged || !pos || !comp_of || !parent || !ws.size || !ws.alive
        || !ws.best_token || !ws.rows || !ws.local || !ws.links || !ws.ents)
        goto done;

    for (i64 c = 0; c < n_comp; c++) {
        i64 base = slot_off[c], s = slot_off[c + 1] - base;
        i64 so = base - c, p0 = pair_off[c], ops = 0;
        long long len = merge_one(
            &ws, s, sizes + base, pair_off[c + 1] - p0,
            pair_lo + p0, pair_hi + p0, pair_count + p0, ptable, naive,
            stream_left + so, stream_right + so, stream_goodness + so,
            stream_sizes + so, &ops);
        if (len < 0)
            goto done;
        stream_len[c] = len;
        stream_heap_ops[c] = ops;
        heap_ops += ops;
        for (i64 x = 0; x < s; x++)
            comp_of[global_ids[base + x]] = c;
    }

    /* k-way replay: one (-head goodness, head u gid) entry per stream;
     * u gids are distinct across live heads, so the key is total */
    heap.cap = n_comp > 0 ? n_comp : 1;
    heap.e = (HeapEnt *)malloc((size_t)heap.cap * sizeof(HeapEnt));
    if (!heap.e)
        goto done;
    for (i64 c = 0; c < n_comp; c++) {
        if (stream_len[c] == 0)
            continue;
        i64 base = slot_off[c], so = base - c;
        heap.e[heap.len].neg = -stream_goodness[so];
        heap.e[heap.len].partner = replay_gid(
            stream_left[so], slot_off[c + 1] - base, global_ids + base,
            merged + so);
        heap.len++;
    }
    heap_heapify(&heap);
    heap_ops += heap.len;

    i64 alive = m, n_out = 0, stopped = 0;
    while (alive > k) {
        if (heap.len == 0) {
            /* no positive-goodness merge remains anywhere */
            stopped = 1;
            break;
        }
        HeapEnt head = heap_pop(&heap);
        heap_ops++;
        i64 c = comp_of[head.partner];
        i64 base = slot_off[c], s = slot_off[c + 1] - base, so = base - c;
        i64 t = pos[c], at = so + t;
        i64 w = m + n_out;
        merged[at] = w;
        comp_of[w] = c;
        out_left[n_out] = head.partner;
        out_right[n_out] = replay_gid(
            stream_right[at], s, global_ids + base, merged + so);
        out_goodness[n_out] = stream_goodness[at];
        out_sizes[n_out] = stream_sizes[at];
        n_out++;
        pos[c] = t + 1;
        alive--;
        if (t + 1 < stream_len[c]) {
            if (heap_push(&heap, -stream_goodness[at + 1],
                          replay_gid(stream_left[at + 1], s,
                                     global_ids + base, merged + so)) != 0)
                goto done;
            heap_ops++;
        }
    }

    /* root labels: merged ids exceed their parts' ids, so one
     * descending sweep resolves every id to its final cluster */
    for (i64 x = 0; x < m + n_out; x++)
        parent[x] = x;
    for (i64 t = 0; t < n_out; t++) {
        parent[out_left[t]] = m + t;
        parent[out_right[t]] = m + t;
    }
    for (i64 x = m + n_out - 1; x >= 0; x--)
        parent[x] = parent[parent[x]];
    for (i64 x = 0; x < m; x++)
        out_root[x] = parent[x];
    stats[0] = heap_ops;
    stats[1] = stopped;
    result = n_out;

done:
    free(heap.e);
    free(merged);
    free(pos);
    free(comp_of);
    free(parent);
    free(ws.size);
    free(ws.alive);
    free(ws.best_token);
    free(ws.rows);
    free(ws.local);
    free(ws.heap.e);
    free(ws.links);
    free(ws.ents);
    return result;
}

/* Connected components of the undirected graph on m nodes with edges
 * lo[e]-hi[e], as labels numbered by smallest member: the first node
 * is in component 0, the smallest node outside it in component 1, and
 * so on -- the numbering of scipy.sparse.csgraph.connected_components
 * and of repro.core.merge._component_labels' numpy path.
 *
 * Union-find over out_labels as the parent array: a union hangs the
 * larger root under the smaller, and finds halve their paths, so
 * parent[x] <= x always and every root is its tree's smallest member.
 * One ascending sweep then labels in place: a root takes the next
 * label, any other node its (already relabelled) parent's.  Returns
 * the number of components.
 */
long long component_labels(
    i64 m, i64 n_edges, const i64 *lo, const i64 *hi, i64 *out_labels)
{
    i64 *parent = out_labels;
    for (i64 x = 0; x < m; x++)
        parent[x] = x;
    for (i64 e = 0; e < n_edges; e++) {
        i64 a = lo[e], b = hi[e];
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        while (parent[b] != b) {
            parent[b] = parent[parent[b]];
            b = parent[b];
        }
        if (a < b)
            parent[b] = a;
        else if (b < a)
            parent[a] = b;
    }
    i64 n_comp = 0;
    for (i64 x = 0; x < m; x++)
        parent[x] = parent[x] == x ? n_comp++ : parent[parent[x]];
    return n_comp;
}
