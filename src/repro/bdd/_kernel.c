/* Native operator cores for the repro BDD manager.
 *
 * This file is compiled on demand (``cc -O2 -shared -fPIC``) by
 * ``repro.bdd.native`` and loaded through cffi's ABI mode.  It operates
 * directly on the manager's flat ``array('q')`` buffers — the node
 * arrays, the open-addressed unique table, and the direct-mapped
 * operation caches — so Python and C always see one shared
 * representation.  The traversal order, hash mixing, and eviction
 * policy here mirror the pure-Python fallback cores in
 * ``repro.bdd.manager`` exactly: both kernels create nodes in the same
 * insertion order, which is what keeps synthesis output bit-identical
 * regardless of which kernel ran.
 *
 * Every entry point takes one ``bdd_ctx``: the table pointers of the
 * manager's current table generation.  Python binds a context once
 * after any table array is swapped or resized and reuses it for every
 * call until the next swap.
 *
 * Growth protocol: the C side never allocates Python storage.  When an
 * insert would overflow the node arrays it returns ``BDD_GROW_NODES``;
 * when the unique table crosses 75% load it returns
 * ``BDD_GROW_UNIQUE``.  The Python wrapper allocates the larger arrays,
 * re-seats the entries with the ``bdd_rehash_*`` functions below, binds
 * a new context and restarts the operation — partial results live in
 * the unique table and caches, so the restart is near-free.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BDD_FALSE 0
#define BDD_TRUE 1

#define BDD_GROW_NODES (-1)
#define BDD_GROW_UNIQUE (-2)
#define BDD_NOMEM (-3)
#define BDD_GROW_QUANT (-4)  /* primary quantify cache needs a rehash */
#define BDD_GROW_QUANT2 (-5) /* and_exists cache needs a rehash */
/* -(6+i): op cache i (0=and 1=or 2=xor 3=not 4=ite) is thrashing — one
 * call evicted more entries than the cache holds — and should double. */
#define BDD_GROW_OPCACHE(i) (-6 - (i))
#define OPCACHE_MAX (1 << 16) /* keep in sync with manager._OPCACHE_MAX */

/* ctrl[] layout — keep in sync with repro.bdd.manager. */
enum {
    C_NNODES = 0,
    C_NODECAP = 1,
    C_UNIQ_MASK = 2,
    C_UNIQ_USED = 3,
    C_AND_MASK = 4,
    C_OR_MASK = 5,
    C_XOR_MASK = 6,
    C_NOT_MASK = 7,
    C_ITE_MASK = 8,
    C_AND_USED = 9,
    C_OR_USED = 10,
    C_XOR_USED = 11,
    C_NOT_USED = 12,
    C_ITE_USED = 13,
    C_EX_MASK = 14,
    C_EX_USED = 15,
    C_FA_MASK = 16,
    C_FA_USED = 17,
    C_AE_MASK = 18,
    C_AE_USED = 19,
};

/* Table pointers of one table generation; keep in sync with
 * repro.bdd.native._CDEF.  Caches not yet allocated are NULL. */
typedef struct {
    int64_t *ctrl, *stats, *level, *lo, *hi, *uniq;
    int64_t *and_k, *and_v, *or_k, *or_v, *xor_k, *xor_v;
    int64_t *not_k, *not_v, *ite_ka, *ite_kb, *ite_v;
    int64_t *ex_k, *ex_v, *fa_k, *fa_v, *ae_k1, *ae_k2, *ae_v;
} bdd_ctx;

/* stats[] layout — keep in sync with repro.bdd.manager. */
enum {
    S_ITE_HIT = 0, S_ITE_MISS,
    S_AND_HIT, S_AND_MISS,
    S_OR_HIT, S_OR_MISS,
    S_XOR_HIT, S_XOR_MISS,
    S_NOT_HIT, S_NOT_MISS,
    S_EX_HIT, S_EX_MISS,
    S_FA_HIT, S_FA_MISS,
    S_AE_HIT, S_AE_MISS,
    S_INSERTS, S_CLEARS, S_EVICTED,
};

/* Hash multipliers shared with the Python probes.  All operands are
 * < 2^31 (node indices) or < 2^30 (levels), so the mixed sum stays
 * below 2^64 and Python's unbounded integers compute the same value. */
#define M1 2654435761ULL /* 0x9E3779B1 */
#define M2 2246822519ULL /* 0x85EBCA77 */
#define M3 3266489917ULL /* 0xC2B2AE3D */

typedef struct {
    int64_t tag;
    int64_t a;
    int64_t b;
    int64_t c;
} frame_t;

typedef struct {
    frame_t *frames;
    int64_t top;
    int64_t cap;
    int64_t *results;
    int64_t rtop;
    int64_t rcap;
    int oom;
} stacks_t;

static int stacks_init(stacks_t *s) {
    s->cap = 1024;
    s->rcap = 1024;
    s->top = 0;
    s->rtop = 0;
    s->oom = 0;
    s->frames = malloc(sizeof(frame_t) * s->cap);
    s->results = malloc(sizeof(int64_t) * s->rcap);
    if (!s->frames || !s->results) {
        free(s->frames);
        free(s->results);
        s->oom = 1;
        return 0;
    }
    return 1;
}

static void stacks_free(stacks_t *s) {
    if (!s->oom) {
        free(s->frames);
        free(s->results);
    }
}

static inline int push_frame(stacks_t *s, int64_t tag, int64_t a, int64_t b,
                             int64_t c) {
    if (s->top == s->cap) {
        int64_t ncap = s->cap * 2;
        frame_t *nf = realloc(s->frames, sizeof(frame_t) * ncap);
        if (!nf) return 0;
        s->frames = nf;
        s->cap = ncap;
    }
    frame_t *f = &s->frames[s->top++];
    f->tag = tag;
    f->a = a;
    f->b = b;
    f->c = c;
    return 1;
}

static inline int push_result(stacks_t *s, int64_t v) {
    if (s->rtop == s->rcap) {
        int64_t ncap = s->rcap * 2;
        int64_t *nr = realloc(s->results, sizeof(int64_t) * ncap);
        if (!nr) return 0;
        s->results = nr;
        s->rcap = ncap;
    }
    s->results[s->rtop++] = v;
    return 1;
}

/* Find-or-create (lvl, lo, hi) in the unique table.  Returns the node,
 * or a negative growth request. */
static inline int64_t mk(const bdd_ctx *c, int64_t lvl, int64_t lo,
                         int64_t hi) {
    if (lo == hi) return lo;
    int64_t *ctrl = c->ctrl, *level = c->level, *loa = c->lo, *hia = c->hi;
    int64_t *uniq = c->uniq;
    uint64_t mask = (uint64_t)ctrl[C_UNIQ_MASK];
    uint64_t slot = ((uint64_t)lvl * M1 + (uint64_t)lo * M2 +
                     (uint64_t)hi * M3) & mask;
    for (;;) {
        int64_t node = uniq[slot];
        if (node == 0) break;
        if (level[node] == lvl && loa[node] == lo && hia[node] == hi)
            return node;
        slot = (slot + 1) & mask;
    }
    int64_t n = ctrl[C_NNODES];
    if (n >= ctrl[C_NODECAP]) return BDD_GROW_NODES;
    if ((ctrl[C_UNIQ_USED] + 1) * 4 > (int64_t)(mask + 1) * 3)
        return BDD_GROW_UNIQUE;
    level[n] = lvl;
    loa[n] = lo;
    hia[n] = hi;
    uniq[slot] = n;
    ctrl[C_NNODES] = n + 1;
    ctrl[C_UNIQ_USED] += 1;
    c->stats[S_INSERTS] += 1;
    return n;
}

/* Direct-mapped cache store with in-place eviction accounting.
 * Returns 1 when a live entry under a different key was overwritten, so
 * callers can count per-call eviction pressure. */
static inline int cache_put(int64_t *keys, int64_t *vals, uint64_t mask,
                            int64_t *used, int64_t key, int64_t value,
                            uint64_t slot, int64_t *stats) {
    int64_t old = keys[slot];
    int evicted = 0;
    if (old == 0)
        *used += 1;
    else if (old != key) {
        stats[S_EVICTED] += 1;
        evicted = 1;
    }
    keys[slot] = key;
    vals[slot] = value;
    return evicted;
}

/* Complement ~f.  Mirrors BDDManager._py_negate. */
int64_t bdd_negate(const bdd_ctx *c, int64_t f) {
    if (f <= 1) return 1 - f;
    int64_t *ctrl = c->ctrl, *stats = c->stats, *level = c->level;
    int64_t *loa = c->lo, *hia = c->hi, *not_k = c->not_k, *not_v = c->not_v;
    uint64_t nmask = (uint64_t)ctrl[C_NOT_MASK];
    {
        uint64_t slot = ((uint64_t)f * M1) & nmask;
        if (not_k[slot] == f) {
            stats[S_NOT_HIT] += 1;
            return not_v[slot];
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    int64_t ev = 0;
    if (!push_frame(&s, 0, f, 0, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        int64_t n = fr.a;
        if (fr.tag == 0) {
            if (n <= 1) {
                if (!push_result(&s, 1 - n)) rc = BDD_NOMEM;
                continue;
            }
            uint64_t slot = ((uint64_t)n * M1) & nmask;
            if (not_k[slot] == n) {
                stats[S_NOT_HIT] += 1;
                if (!push_result(&s, not_v[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_NOT_MISS] += 1;
            if (!push_frame(&s, 1, n, 0, 0) ||
                !push_frame(&s, 0, hia[n], 0, 0) ||
                !push_frame(&s, 0, loa[n], 0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node = mk(c, level[n], lo, hi);
            if (node < 0) {
                rc = node;
                break;
            }
            uint64_t slot = ((uint64_t)n * M1) & nmask;
            ev += cache_put(not_k, not_v, nmask, &ctrl[C_NOT_USED], n,
                            node, slot, stats);
            slot = ((uint64_t)node * M1) & nmask;
            ev += cache_put(not_k, not_v, nmask, &ctrl[C_NOT_USED], node,
                            n, slot, stats);
            if (ev > (int64_t)nmask && (int64_t)(nmask + 1) < OPCACHE_MAX) {
                rc = BDD_GROW_OPCACHE(3);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Binary connectives: op 0 = AND, 1 = OR, 2 = XOR.  The caller has
 * already applied the terminal short-circuits and the operand swap, so
 * f, g >= 2 and f < g on entry; per-frame logic mirrors the Python
 * fallback core exactly. */
int64_t bdd_apply(const bdd_ctx *c, int64_t op, int64_t f, int64_t g) {
    int64_t *ctrl = c->ctrl, *stats = c->stats, *level = c->level;
    int64_t *loa = c->lo, *hia = c->hi;
    int64_t *ck, *cv;
    uint64_t cmask;
    int64_t *cused;
    int s_hit, s_miss;
    if (op == 0) {
        ck = c->and_k; cv = c->and_v; cmask = (uint64_t)ctrl[C_AND_MASK];
        cused = &ctrl[C_AND_USED]; s_hit = S_AND_HIT; s_miss = S_AND_MISS;
    } else if (op == 1) {
        ck = c->or_k; cv = c->or_v; cmask = (uint64_t)ctrl[C_OR_MASK];
        cused = &ctrl[C_OR_USED]; s_hit = S_OR_HIT; s_miss = S_OR_MISS;
    } else {
        ck = c->xor_k; cv = c->xor_v; cmask = (uint64_t)ctrl[C_XOR_MASK];
        cused = &ctrl[C_XOR_USED]; s_hit = S_XOR_HIT; s_miss = S_XOR_MISS;
    }
    {
        int64_t key = (f << 31) | g;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)g * M2) & cmask;
        if (ck[slot] == key) {
            stats[s_hit] += 1;
            return cv[slot];
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    int64_t ev = 0;
    if (!push_frame(&s, 0, f, g, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t a = fr.a, b = fr.b;
            if (op == 0) { /* AND terminals */
                if (a == b) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
                if (a == BDD_FALSE || b == BDD_FALSE) {
                    if (!push_result(&s, BDD_FALSE)) rc = BDD_NOMEM; continue;
                }
                if (a == BDD_TRUE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
                if (b == BDD_TRUE) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
            } else if (op == 1) { /* OR terminals */
                if (a == b) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
                if (a == BDD_TRUE || b == BDD_TRUE) {
                    if (!push_result(&s, BDD_TRUE)) rc = BDD_NOMEM; continue;
                }
                if (a == BDD_FALSE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
                if (b == BDD_FALSE) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
            } else { /* XOR terminals */
                if (a == b) { if (!push_result(&s, BDD_FALSE)) rc = BDD_NOMEM; continue; }
                if (a == BDD_FALSE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
                if (b == BDD_FALSE) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
                if (a == BDD_TRUE) {
                    int64_t r = bdd_negate(c, b);
                    if (r < 0) { rc = r; break; }
                    if (!push_result(&s, r)) rc = BDD_NOMEM;
                    continue;
                }
                if (b == BDD_TRUE) {
                    int64_t r = bdd_negate(c, a);
                    if (r < 0) { rc = r; break; }
                    if (!push_result(&s, r)) rc = BDD_NOMEM;
                    continue;
                }
            }
            if (a > b) { int64_t t = a; a = b; b = t; }
            int64_t key = (a << 31) | b;
            uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2) & cmask;
            if (ck[slot] == key) {
                stats[s_hit] += 1;
                if (!push_result(&s, cv[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[s_miss] += 1;
            int64_t la = level[a], lb = level[b];
            int64_t top, a0, a1, b0, b1;
            if (la < lb) {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = b; b1 = b;
            } else if (lb < la) {
                top = lb; a0 = a; a1 = a; b0 = loa[b]; b1 = hia[b];
            } else {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = loa[b]; b1 = hia[b];
            }
            if (!push_frame(&s, 1, key, top, 0) ||
                !push_frame(&s, 0, a1, b1, 0) ||
                !push_frame(&s, 0, a0, b0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t key = fr.a, top = fr.b;
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node;
            if (lo == hi) {
                node = lo;
            } else {
                node = mk(c, top, lo, hi);
                if (node < 0) { rc = node; break; }
            }
            uint64_t slot = ((uint64_t)(key >> 31) * M1 +
                             (uint64_t)(key & 0x7FFFFFFF) * M2) & cmask;
            ev += cache_put(ck, cv, cmask, cused, key, node, slot, stats);
            if (ev > (int64_t)cmask && (int64_t)(cmask + 1) < OPCACHE_MAX) {
                rc = BDD_GROW_OPCACHE(op);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* If-then-else.  The caller has applied the top-level short-circuits,
 * so f >= 2 on entry (g, h may still be terminals). */
int64_t bdd_ite(const bdd_ctx *c, int64_t f, int64_t g, int64_t h) {
    int64_t *ctrl = c->ctrl, *stats = c->stats, *level = c->level;
    int64_t *loa = c->lo, *hia = c->hi;
    int64_t *ite_ka = c->ite_ka, *ite_kb = c->ite_kb, *ite_v = c->ite_v;
    uint64_t imask = (uint64_t)ctrl[C_ITE_MASK];
    {
        int64_t ka = (f << 31) | g;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)g * M2 +
                         (uint64_t)h * M3) & imask;
        if (ite_ka[slot] == ka && ite_kb[slot] == h) {
            stats[S_ITE_HIT] += 1;
            return ite_v[slot];
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    int64_t ev = 0;
    if (!push_frame(&s, 0, f, g, h)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t a = fr.a, b = fr.b, e = fr.c; /* if a then b else e */
            if (a == BDD_TRUE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
            if (a == BDD_FALSE) { if (!push_result(&s, e)) rc = BDD_NOMEM; continue; }
            if (b == e) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
            if (b == BDD_TRUE && e == BDD_FALSE) {
                if (!push_result(&s, a)) rc = BDD_NOMEM; continue;
            }
            if (b == BDD_FALSE && e == BDD_TRUE) {
                int64_t r = bdd_negate(c, a);
                if (r < 0) { rc = r; break; }
                if (!push_result(&s, r)) rc = BDD_NOMEM;
                continue;
            }
            int64_t ka = (a << 31) | b;
            uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2 +
                             (uint64_t)e * M3) & imask;
            if (ite_ka[slot] == ka && ite_kb[slot] == e) {
                stats[S_ITE_HIT] += 1;
                if (!push_result(&s, ite_v[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_ITE_MISS] += 1;
            int64_t lf = level[a], lg = level[b], lh = level[e];
            int64_t top = lf;
            if (lg < top) top = lg;
            if (lh < top) top = lh;
            int64_t f0, f1, g0, g1, h0, h1;
            if (lf == top) { f0 = loa[a]; f1 = hia[a]; } else { f0 = a; f1 = a; }
            if (lg == top) { g0 = loa[b]; g1 = hia[b]; } else { g0 = b; g1 = b; }
            if (lh == top) { h0 = loa[e]; h1 = hia[e]; } else { h0 = e; h1 = e; }
            if (!push_frame(&s, 1, ka, e, top) ||
                !push_frame(&s, 0, f1, g1, h1) ||
                !push_frame(&s, 0, f0, g0, h0))
                rc = BDD_NOMEM;
        } else {
            int64_t ka = fr.a, kb = fr.b, top = fr.c;
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node;
            if (lo == hi) {
                node = lo;
            } else {
                node = mk(c, top, lo, hi);
                if (node < 0) { rc = node; break; }
            }
            uint64_t slot = ((uint64_t)(ka >> 31) * M1 +
                             (uint64_t)(ka & 0x7FFFFFFF) * M2 +
                             (uint64_t)kb * M3) & imask;
            int64_t old = ite_ka[slot];
            if (old == 0)
                ctrl[C_ITE_USED] += 1;
            else if (old != ka || ite_kb[slot] != kb) {
                stats[S_EVICTED] += 1;
                ev += 1;
            }
            ite_ka[slot] = ka;
            ite_kb[slot] = kb;
            ite_v[slot] = node;
            if (ev > (int64_t)imask && (int64_t)(imask + 1) < OPCACHE_MAX) {
                rc = BDD_GROW_OPCACHE(4);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Binary connective with the public-entry short-circuits applied, for
 * use *inside* other kernels (mirrors manager.apply_and/apply_or). */
static int64_t apply_full(const bdd_ctx *c, int64_t op, int64_t a,
                          int64_t b) {
    if (a == b) return a;
    if (op == 0) { /* AND */
        if (a == BDD_FALSE || b == BDD_FALSE) return BDD_FALSE;
        if (a == BDD_TRUE) return b;
        if (b == BDD_TRUE) return a;
    } else { /* OR */
        if (a == BDD_TRUE || b == BDD_TRUE) return BDD_TRUE;
        if (a == BDD_FALSE) return b;
        if (b == BDD_FALSE) return a;
    }
    if (a > b) { int64_t t = a; a = b; b = t; }
    return bdd_apply(c, op, a, b);
}

/* Is ``lvl`` one of the quantified levels?  ``cube`` is sorted
 * ascending and small, so a linear scan with early exit wins over
 * anything fancier. */
static inline int in_cube(int64_t lvl, const int64_t *cube, int64_t len) {
    for (int64_t i = 0; i < len; i++) {
        if (cube[i] >= lvl) return cube[i] == lvl;
    }
    return 0;
}

/* Lossless insert into a (node << 31 | cid)-keyed quantify cache.
 * Returns 0 — without touching the table — when the insert would push
 * the load past 75%; the caller converts that into a grow-and-restart
 * round trip through Python. */
static inline int q_put1(int64_t *qk, int64_t *qv, uint64_t qmask,
                         int64_t *quse, int64_t key, int64_t value) {
    if ((quse[0] + 1) * 4 > (int64_t)(qmask + 1) * 3) return 0;
    uint64_t slot = ((uint64_t)(key >> 31) * M1 +
                     (uint64_t)(key & 0x7FFFFFFF) * M2) & qmask;
    while (qk[slot] != 0) {
        if (qk[slot] == key) { qv[slot] = value; return 1; }
        slot = (slot + 1) & qmask;
    }
    qk[slot] = key;
    qv[slot] = value;
    quse[0] += 1;
    return 1;
}

/* Existential (op 0, OR-combine) / universal (op 1, AND-combine)
 * abstraction.  Mirrors repro.bdd.quantify.exists/forall frame for
 * frame: tag 0 expand, tag 1 rebuild an unquantified level, tag 2
 * lo-cofactor of a quantified level done (early-exit on the dominating
 * terminal), tag 3 both cofactors done (combine). */
int64_t bdd_quantify(const bdd_ctx *c, int64_t op, int64_t f, int64_t cid,
                     const int64_t *cube, int64_t cube_len,
                     int64_t max_level) {
    int64_t *ctrl = c->ctrl, *stats = c->stats, *level = c->level;
    int64_t *loa = c->lo, *hia = c->hi;
    int64_t *qk = (op == 0) ? c->ex_k : c->fa_k;
    int64_t *qv = (op == 0) ? c->ex_v : c->fa_v;
    uint64_t qmask = (uint64_t)ctrl[(op == 0) ? C_EX_MASK : C_FA_MASK];
    int64_t *quse = &ctrl[(op == 0) ? C_EX_USED : C_FA_USED];
    int s_hit = (op == 0) ? S_EX_HIT : S_FA_HIT;
    int s_miss = (op == 0) ? S_EX_MISS : S_FA_MISS;
    int64_t early = (op == 0) ? BDD_TRUE : BDD_FALSE;
    int64_t combine = (op == 0) ? 1 : 0; /* OR for exists, AND for forall */
    if (f <= 1 || level[f] > max_level) return f;
    {
        int64_t fkey = (f << 31) | cid;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)cid * M2) & qmask;
        while (qk[slot] != 0) {
            if (qk[slot] == fkey) {
                stats[s_hit] += 1;
                return qv[slot];
            }
            slot = (slot + 1) & qmask;
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    if (!push_frame(&s, 0, f, 0, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t n = fr.a;
            if (n <= 1 || level[n] > max_level) {
                if (!push_result(&s, n)) rc = BDD_NOMEM;
                continue;
            }
            int64_t nkey = (n << 31) | cid;
            uint64_t slot = ((uint64_t)n * M1 + (uint64_t)cid * M2) & qmask;
            int64_t cached = -1;
            while (qk[slot] != 0) {
                if (qk[slot] == nkey) { cached = qv[slot]; break; }
                slot = (slot + 1) & qmask;
            }
            if (cached >= 0) {
                stats[s_hit] += 1;
                if (!push_result(&s, cached)) rc = BDD_NOMEM;
                continue;
            }
            stats[s_miss] += 1;
            int64_t lvl = level[n];
            if (in_cube(lvl, cube, cube_len)) {
                if (!push_frame(&s, 2, nkey, hia[n], 0) ||
                    !push_frame(&s, 0, loa[n], 0, 0))
                    rc = BDD_NOMEM;
            } else {
                if (!push_frame(&s, 1, nkey, lvl, 0) ||
                    !push_frame(&s, 0, hia[n], 0, 0) ||
                    !push_frame(&s, 0, loa[n], 0, 0))
                    rc = BDD_NOMEM;
            }
        } else if (fr.tag == 1) {
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node;
            if (lo == hi) {
                node = lo;
            } else {
                node = mk(c, fr.b, lo, hi);
                if (node < 0) { rc = node; break; }
            }
            if (!q_put1(qk, qv, qmask, quse, fr.a, node)) {
                rc = BDD_GROW_QUANT;
                break;
            }
            s.results[s.rtop - 1] = node;
        } else if (fr.tag == 2) {
            if (s.results[s.rtop - 1] == early) {
                if (!q_put1(qk, qv, qmask, quse, fr.a, early)) {
                    rc = BDD_GROW_QUANT;
                    break;
                }
                continue;
            }
            if (!push_frame(&s, 3, fr.a, 0, 0) ||
                !push_frame(&s, 0, fr.b, 0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t hi = s.results[--s.rtop];
            int64_t node = apply_full(c, combine, s.results[s.rtop - 1], hi);
            if (node < 0) { rc = node; break; }
            if (!q_put1(qk, qv, qmask, quse, fr.a, node)) {
                rc = BDD_GROW_QUANT;
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Lossless insert into the two-word-key and_exists cache; same growth
 * contract as q_put1 but signalled as BDD_GROW_QUANT2. */
static inline int ae_put(int64_t *k1, int64_t *k2, int64_t *v,
                         uint64_t mask, int64_t *use, int64_t a, int64_t b,
                         int64_t cid, int64_t value) {
    if ((use[0] + 1) * 4 > (int64_t)(mask + 1) * 3) return 0;
    int64_t key1 = (a << 31) | b;
    uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2 +
                     (uint64_t)cid * M3) & mask;
    while (k1[slot] != 0) {
        if (k1[slot] == key1 && k2[slot] == cid) {
            v[slot] = value;
            return 1;
        }
        slot = (slot + 1) & mask;
    }
    k1[slot] = key1;
    k2[slot] = cid;
    v[slot] = value;
    use[0] += 1;
    return 1;
}

/* Fused relational product ∃cube.(f & g).  Mirrors
 * repro.bdd.quantify.and_exists; pair frames pack (a << 31 | b) into
 * one word since both operands are node indices < 2^31. */
int64_t bdd_and_exists(const bdd_ctx *c, int64_t f, int64_t g, int64_t cid,
                       const int64_t *cube, int64_t cube_len,
                       int64_t max_level) {
    int64_t *ctrl = c->ctrl, *stats = c->stats, *level = c->level;
    int64_t *loa = c->lo, *hia = c->hi;
    int64_t *ae_k1 = c->ae_k1, *ae_k2 = c->ae_k2, *ae_v = c->ae_v;
    uint64_t amask = (uint64_t)ctrl[C_AE_MASK];
    int64_t *ae_use = &ctrl[C_AE_USED];
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    if (!push_frame(&s, 0, f, g, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t a = fr.a, b = fr.b;
            if (a == BDD_FALSE || b == BDD_FALSE) {
                if (!push_result(&s, BDD_FALSE)) rc = BDD_NOMEM;
                continue;
            }
            if (a == BDD_TRUE || b == BDD_TRUE) {
                int64_t other = (a == BDD_TRUE) ? b : a;
                int64_t r = (other == BDD_TRUE)
                    ? BDD_TRUE
                    : bdd_quantify(c, 0, other, cid, cube, cube_len,
                                   max_level);
                if (r < 0) { rc = r; break; }
                if (!push_result(&s, r)) rc = BDD_NOMEM;
                continue;
            }
            int64_t la = level[a], lb = level[b];
            if (la > max_level && lb > max_level) {
                /* No quantified variable below either operand: the
                 * product degenerates to a plain conjunction. */
                int64_t r = apply_full(c, 0, a, b);
                if (r < 0) { rc = r; break; }
                if (!push_result(&s, r)) rc = BDD_NOMEM;
                continue;
            }
            if (a > b) {
                int64_t t = a; a = b; b = t;
                t = la; la = lb; lb = t;
            }
            int64_t key1 = (a << 31) | b;
            uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2 +
                             (uint64_t)cid * M3) & amask;
            int64_t cached = -1;
            while (ae_k1[slot] != 0) {
                if (ae_k1[slot] == key1 && ae_k2[slot] == cid) {
                    cached = ae_v[slot];
                    break;
                }
                slot = (slot + 1) & amask;
            }
            if (cached >= 0) {
                stats[S_AE_HIT] += 1;
                if (!push_result(&s, cached)) rc = BDD_NOMEM;
                continue;
            }
            stats[S_AE_MISS] += 1;
            int64_t top, a0, a1, b0, b1;
            if (la < lb) {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = b; b1 = b;
            } else if (lb < la) {
                top = lb; a0 = a; a1 = a; b0 = loa[b]; b1 = hia[b];
            } else {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = loa[b]; b1 = hia[b];
            }
            if (in_cube(top, cube, cube_len)) {
                if (!push_frame(&s, 2, key1, a1, b1) ||
                    !push_frame(&s, 0, a0, b0, 0))
                    rc = BDD_NOMEM;
            } else {
                if (!push_frame(&s, 1, key1, top, 0) ||
                    !push_frame(&s, 0, a1, b1, 0) ||
                    !push_frame(&s, 0, a0, b0, 0))
                    rc = BDD_NOMEM;
            }
        } else if (fr.tag == 1) {
            int64_t a = fr.a >> 31, b = fr.a & 0x7FFFFFFF;
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node;
            if (lo == hi) {
                node = lo;
            } else {
                node = mk(c, fr.b, lo, hi);
                if (node < 0) { rc = node; break; }
            }
            if (!ae_put(ae_k1, ae_k2, ae_v, amask, ae_use, a, b, cid,
                        node)) {
                rc = BDD_GROW_QUANT2;
                break;
            }
            s.results[s.rtop - 1] = node;
        } else if (fr.tag == 2) {
            int64_t a = fr.a >> 31, b = fr.a & 0x7FFFFFFF;
            if (s.results[s.rtop - 1] == BDD_TRUE) {
                if (!ae_put(ae_k1, ae_k2, ae_v, amask, ae_use, a, b, cid,
                            BDD_TRUE)) {
                    rc = BDD_GROW_QUANT2;
                    break;
                }
                continue;
            }
            if (!push_frame(&s, 3, fr.a, 0, 0) ||
                !push_frame(&s, 0, fr.b, fr.c, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t a = fr.a >> 31, b = fr.a & 0x7FFFFFFF;
            int64_t hi = s.results[--s.rtop];
            int64_t node = apply_full(c, 1, s.results[s.rtop - 1], hi);
            if (node < 0) { rc = node; break; }
            if (!ae_put(ae_k1, ae_k2, ae_v, amask, ae_use, a, b, cid,
                        node)) {
                rc = BDD_GROW_QUANT2;
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Re-seat every live node into a freshly zeroed unique-slot array after
 * Python doubles it (all internal nodes are always live — there is no
 * garbage collection). */
void bdd_rehash_unique(int64_t *ctrl, const int64_t *level,
                       const int64_t *loa, const int64_t *hia,
                       int64_t *slots, int64_t new_mask) {
    uint64_t mask = (uint64_t)new_mask;
    int64_t n = ctrl[C_NNODES];
    for (int64_t node = 2; node < n; node++) {
        uint64_t slot = ((uint64_t)level[node] * M1 +
                         (uint64_t)loa[node] * M2 +
                         (uint64_t)hia[node] * M3) & mask;
        while (slots[slot] != 0)
            slot = (slot + 1) & mask;
        slots[slot] = node;
    }
    ctrl[C_UNIQ_MASK] = new_mask;
}

/* Re-seat a cache into freshly zeroed arrays of mask + 1 slots, in old
 * slot order.  Kinds, by key layout and slot policy:
 *   0  binary op cache (f << 31 | g), direct-mapped;
 *   1  NOT cache (node), direct-mapped;
 *   2  ite cache (f << 31 | g, h), direct-mapped;
 *   3  quantify cache (node << 31 | cube), lossless linear probe;
 *   4  and_exists cache (a << 31 | b, cube), lossless linear probe.
 * k2/nk2 carry the second key word of kinds 2 and 4 (NULL otherwise).
 * A direct-mapped entry that lands on an occupied slot overwrites it
 * and counts in stats[S_EVICTED].  Returns the new occupied-slot count.
 * Mirrors the pure-Python loops of BDDManager._grow_* exactly. */
int64_t bdd_rehash_cache(int64_t kind, const int64_t *k, const int64_t *k2,
                         const int64_t *v, int64_t old_cap, int64_t *nk,
                         int64_t *nk2, int64_t *nv, int64_t new_mask,
                         int64_t *stats) {
    uint64_t mask = (uint64_t)new_mask;
    int64_t used = 0, evicted = 0;
    for (int64_t i = 0; i < old_cap; i++) {
        int64_t key = k[i];
        if (key == 0) continue;
        uint64_t hi = (uint64_t)(key >> 31), lo = (uint64_t)(key & 0x7FFFFFFF);
        uint64_t slot;
        if (kind == 1)
            slot = ((uint64_t)key * M1) & mask;
        else if (kind == 2 || kind == 4)
            slot = (hi * M1 + lo * M2 + (uint64_t)k2[i] * M3) & mask;
        else
            slot = (hi * M1 + lo * M2) & mask;
        if (kind >= 3) {
            while (nk[slot] != 0)
                slot = (slot + 1) & mask;
            used += 1;
        } else if (nk[slot] == 0) {
            used += 1;
        } else {
            evicted += 1;
        }
        nk[slot] = key;
        if (nk2) nk2[slot] = k2[i];
        nv[slot] = v[i];
    }
    stats[S_EVICTED] += evicted;
    return used;
}
