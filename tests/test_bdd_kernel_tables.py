"""Unit tests for the open-addressed array kernel: unique-table rehash,
direct-mapped op-cache eviction, clear semantics, gauge surfaces,
native/pure-Python node-id and rehash parity, and the binding of the
native kernel context to each table generation."""

import random

import pytest

from repro.bdd import native as _native
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.bdd import manager as mgr
from repro.bdd import quantify


def _random_workload(manager, steps=1500, seed=7, num_vars=10):
    """A deterministic mixed-operator workload; returns the result log."""
    rng = random.Random(seed)
    nodes = [manager.var(i) for i in range(num_vars)]
    nodes += [manager.nvar(i) for i in range(num_vars)]
    log = []
    for step in range(steps):
        op = rng.randrange(5)
        f, g, h = (rng.choice(nodes) for _ in range(3))
        if op == 0:
            r = manager.apply_and(f, g)
        elif op == 1:
            r = manager.apply_or(f, g)
        elif op == 2:
            r = manager.apply_xor(f, g)
        elif op == 3:
            r = manager.ite(f, g, h)
        else:
            r = manager.negate(f)
        nodes.append(r)
        log.append(r)
        if step % 300 == 299:
            subset = sorted(rng.sample(range(num_vars), 3))
            log.append(quantify.exists(manager, r, subset))
            log.append(quantify.forall(manager, r, subset))
            log.append(quantify.and_exists(manager, f, g, subset))
    return log


class TestUniqueRehash:
    def test_canonicity_survives_rehash(self):
        """Nodes made before several rehashes are still found, not
        duplicated, afterwards."""
        m = BDDManager(16, native=False)
        early = [m._mk(0, FALSE, TRUE), m._mk(3, TRUE, FALSE)]
        # Grow well past several doublings of the initial 512 slots.
        made = {}
        rng = random.Random(1)
        for _ in range(4000):
            lvl = rng.randrange(16)
            lo, hi = rng.randrange(2), rng.randrange(2)
            if lo == hi:
                continue
            made[(lvl, lo, hi)] = m._mk(lvl, lo, hi)
        chain = TRUE
        for lvl in reversed(range(16)):
            chain = m._mk(lvl, FALSE, chain)
        for _ in range(3000):
            chain = m.apply_xor(chain, m.var(rng.randrange(16)))
        assert m.unique_size > 512  # really rehashed
        # Identical triples resolve to the identical pre-rehash nodes.
        assert m._mk(0, FALSE, TRUE) == early[0]
        assert m._mk(3, TRUE, FALSE) == early[1]
        for (lvl, lo, hi), node in made.items():
            assert m._mk(lvl, lo, hi) == node
        # Load factor invariant: rehash keeps occupancy under 75%.
        assert m.unique_load_factor() <= 0.75

    def test_node_arrays_grow_in_place(self):
        m = BDDManager(12, native=False)
        rng = random.Random(3)
        total = FALSE
        for _ in range(120):
            cube = m.cube({v: rng.random() < 0.5 for v in range(12)})
            total = m.apply_or(total, cube)
        assert m.num_nodes > 256  # grew past the initial capacity
        assert m.lo(m.num_nodes - 1) != m.hi(m.num_nodes - 1)
        assert m.evaluate(total, [False] * 12) in (True, False)


class TestOpCacheEviction:
    def test_in_place_overwrites_are_counted(self):
        m = BDDManager(10, native=False)
        stats = m.enable_stats()
        _random_workload(m, steps=3000)
        # A direct-mapped bounded cache under a 3000-op random load must
        # have overwritten entries; the counter reflects it.
        assert stats.cache_evicted > 0
        sizes = m.cache_sizes()
        caps = m.cache_capacities()
        for name, used in sizes.items():
            assert 0 <= used <= max(caps[name], 1)

    def test_eviction_does_not_change_results(self):
        """The unique table is lossless, so cache eviction may cost time
        but never correctness — the same workload on a fresh manager
        (cold caches) produces the same nodes."""
        m1 = BDDManager(10, native=False)
        log1 = _random_workload(m1, steps=2500)
        m2 = BDDManager(10, native=False)
        log2 = _random_workload(m2, steps=2500)
        assert log1 == log2

    def test_caches_grow_deterministically(self):
        m = BDDManager(10, native=False)
        _random_workload(m, steps=2000)
        caps = m.cache_capacities()
        # Initial size is 256; a 2000-op workload grows the hot caches.
        assert caps["and"] >= 256 and caps["not"] >= 256
        m2 = BDDManager(10, native=False)
        _random_workload(m2, steps=2000)
        assert m2.cache_capacities() == caps

    def test_each_cache_grows_on_its_own_occupancy(self):
        """A capped AND cache must not stop the other op caches from
        growing at operator entry."""
        from array import array

        from repro.bdd import manager as mgr

        m = BDDManager(4, native=False)
        m.apply_or(m.var(0), m.var(1))
        cap = mgr._OPCACHE_MAX
        m._and_k = array("q", bytes(8 * cap))
        m._and_v = array("q", bytes(8 * cap))
        m._ctrl[mgr._C_AND_MASK] = cap - 1
        for index in (mgr._C_OR_USED, mgr._C_XOR_USED, mgr._C_NOT_USED,
                      mgr._C_ITE_USED):
            m._ctrl[index] = mgr._OPCACHE_INIT
        m.apply_and(m.var(2), m.var(3))
        caps = m.cache_capacities()
        assert caps["and"] == cap
        for name in ("or", "xor", "not", "ite"):
            assert caps[name] == 2 * mgr._OPCACHE_INIT, name


def _thrash_one_apply(native):
    """Shrink the AND cache to 4 slots, then run one apply whose
    recursion has far more live subproblems than that.  Without the
    mid-call thrash escape the direct-mapped cache evicts its way into
    exponential recomputation; with it the cache doubles during the
    call.  Returns (result, capacities)."""
    from array import array

    from repro.bdd import manager as mgr

    m = BDDManager(14, native=native)
    # Two offset parity chains: their conjunction recurses over ~4 live
    # (a, b) pairs per level across 13 levels — far more than 4 slots.
    f = FALSE
    for i in range(13):
        f = m.apply_xor(f, m.var(i))
    g = FALSE
    for i in range(1, 14):
        g = m.apply_xor(g, m.var(i))
    m._and_k = array("q", bytes(8 * 4))
    m._and_v = array("q", bytes(8 * 4))
    m._ctrl[mgr._C_AND_MASK] = 3
    m._ctrl[mgr._C_AND_USED] = 0
    m._drop_ctx()
    return m.apply_and(f, g), m.cache_capacities()


class TestThrashGrowth:
    def test_python_core_grows_mid_call(self):
        result, caps = _thrash_one_apply(native=False)
        assert caps["and"] > 4

    @pytest.mark.skipif(
        _native.kernel() is None, reason="native kernel unavailable"
    )
    def test_native_core_grows_mid_call(self):
        """The C core signals thrash with a grow code; the restart must
        produce the same node id as the pure-Python escape."""
        result_py, _ = _thrash_one_apply(native=False)
        result_c, caps = _thrash_one_apply(native=True)
        assert result_c == result_py
        assert caps["and"] > 4


class TestQuantifyCaches:
    def test_lossless_growth(self):
        """Quantification caches never evict: every previously computed
        (node, cube) result still hits after heavy growth."""
        m = BDDManager(12, native=False)
        rng = random.Random(5)
        funcs = []
        for _ in range(60):
            f = TRUE
            for v in rng.sample(range(12), 6):
                lit = m.var(v) if rng.random() < 0.5 else m.nvar(v)
                f = m.apply_and(f, m.apply_or(lit, m.var(rng.randrange(12))))
            funcs.append(f)
        subsets = [sorted(rng.sample(range(12), k)) for k in (2, 3, 4)]
        first = [
            quantify.exists(m, f, s) for f in funcs for s in subsets
        ]
        assert m.cache_sizes()["exists"] > 0
        stats = m.enable_stats()
        again = [
            quantify.exists(m, f, s) for f in funcs for s in subsets
        ]
        assert first == again
        assert stats.exists_misses == 0  # every repeat was a pure hit


class TestClearCaches:
    def test_clear_resets_all_tables_and_counts(self):
        m = BDDManager(10, native=False)
        stats = m.enable_stats()
        log = _random_workload(m, steps=800)
        expected = sum(m.cache_sizes().values())
        assert expected > 0
        evicted_before = stats.cache_evicted
        assert m.clear_caches() == expected
        assert all(v == 0 for v in m.cache_sizes().values())
        assert all(v == 0 for v in m.cache_capacities().values())
        assert stats.cache_evicted == evicted_before + expected
        assert stats.cache_clears == 1
        # No stale probe chains: the identical workload replays to the
        # identical results on the cleared caches.
        assert _random_workload(m, steps=800) == log


class TestGauges:
    def test_monitor_sample_keys(self):
        m = BDDManager(6, native=False)
        _random_workload(m, steps=200, num_vars=6)
        sample = m.monitor_sample()
        for key in (
            "nodes", "unique", "cache_entries", "vars",
            "unique_capacity", "unique_load", "cache_capacity",
        ):
            assert key in sample
        assert sample["unique_capacity"] >= sample["unique"]
        assert 0.0 < sample["unique_load"] <= 0.75

    def test_table_metrics_shape(self):
        m = BDDManager(6, native=False)
        _random_workload(m, steps=200, num_vars=6)
        metrics = m.table_metrics()
        assert set(metrics) == {
            "unique", "cache.ite", "cache.and", "cache.or", "cache.xor",
            "cache.not", "cache.exists", "cache.forall",
            "cache.and_exists",
        }
        for row in metrics.values():
            assert row["used"] <= row["capacity"] or row["capacity"] == 0
            assert 0.0 <= row["load"] <= 1.0

    def test_stats_window_semantics(self):
        """enable_stats starts counting from now, not from birth."""
        m = BDDManager(8, native=False)
        _random_workload(m, steps=300, num_vars=8)
        stats = m.enable_stats()
        assert stats.inserts == 0
        m.apply_and(m.var(0), m.var(1))
        assert stats.inserts >= 1


@pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)
class TestNativeParity:
    def test_node_ids_bit_identical(self):
        py = BDDManager(10, native=False)
        nat = BDDManager(10, native=True)
        assert not py.native and nat.native
        assert _random_workload(py, steps=4000) == _random_workload(
            nat, steps=4000
        )
        assert py.num_nodes == nat.num_nodes

    def test_stats_structural_parity(self):
        """Node-structure counters are exact across kernels.  Probe
        hit/miss counters may differ slightly: the native grow-and-
        restart protocol re-probes the partially-finished operation
        after a growth abort, recounting a few hits/misses the pure
        kernel (which grows inline) never sees."""
        py = BDDManager(10, native=False)
        nat = BDDManager(10, native=True)
        py.enable_stats()
        nat.enable_stats()
        _random_workload(py, steps=2000)
        _random_workload(nat, steps=2000)
        sp, sn = py.stats_snapshot(), nat.stats_snapshot()
        assert sp["unique.inserts"] == sn["unique.inserts"]
        assert sp["num_nodes"] == sn["num_nodes"]
        assert sp["unique_size"] == sn["unique_size"]
        for name in ("ite", "and", "or", "xor", "not"):
            p = sp[f"cache.{name}.hits"] + sp[f"cache.{name}.misses"]
            n = sn[f"cache.{name}.hits"] + sn[f"cache.{name}.misses"]
            assert abs(p - n) <= max(64, p // 100)

    def test_growth_restart_protocol(self):
        """Force node/unique growth inside native calls (initial
        capacities are tiny) and check canonicity afterwards."""
        nat = BDDManager(14, native=True)
        parity = FALSE
        for v in range(14):
            parity = nat.apply_xor(parity, nat.var(v))
        ref = BDDManager(14, native=False)
        parity_ref = FALSE
        for v in range(14):
            parity_ref = ref.apply_xor(parity_ref, ref.var(v))
        assert parity == parity_ref
        assert nat.num_nodes == ref.num_nodes


# name -> (key, second key or None, value, mask slot, used slot, grow)
_CACHES = {
    "and": ("_and_k", None, "_and_v", mgr._C_AND_MASK, mgr._C_AND_USED,
            lambda m: m._grow_binary_cache("and")),
    "or": ("_or_k", None, "_or_v", mgr._C_OR_MASK, mgr._C_OR_USED,
           lambda m: m._grow_binary_cache("or")),
    "xor": ("_xor_k", None, "_xor_v", mgr._C_XOR_MASK, mgr._C_XOR_USED,
            lambda m: m._grow_binary_cache("xor")),
    "not": ("_not_k", None, "_not_v", mgr._C_NOT_MASK, mgr._C_NOT_USED,
            lambda m: m._grow_binary_cache("not")),
    "ite": ("_ite_ka", "_ite_kb", "_ite_v", mgr._C_ITE_MASK,
            mgr._C_ITE_USED, lambda m: m._grow_ite_cache()),
    "ex": ("_ex_k", None, "_ex_v", mgr._C_EX_MASK, mgr._C_EX_USED,
           lambda m: m._grow_quantify("ex")),
    "fa": ("_fa_k", None, "_fa_v", mgr._C_FA_MASK, mgr._C_FA_USED,
           lambda m: m._grow_quantify("fa")),
    "ae": ("_ae_k1", "_ae_k2", "_ae_v", mgr._C_AE_MASK, mgr._C_AE_USED,
           lambda m: m._grow_ae_cache()),
}

needs_native = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


def _fill_cache(m, name, seed):
    """Put random live entries into random slots of one allocated cache.
    Slots ignore the hash, so doubling a direct-mapped cache collides
    and evicts — the case whose accounting must match."""
    key, key2, value, mask_idx, used_idx, _ = _CACHES[name]
    rng = random.Random(seed)
    karr, varr = getattr(m, key), getattr(m, value)
    k2arr = getattr(m, key2) if key2 else None
    used = 0
    for slot in range(len(karr)):
        if rng.random() < 0.7:
            a, b = rng.randrange(2, 1 << 20), rng.randrange(2, 1 << 20)
            karr[slot] = a if name == "not" else (a << 31) | b
            varr[slot] = rng.randrange(2, 1 << 20)
            if k2arr is not None:
                k2arr[slot] = rng.randrange(1 << 10)
            used += 1
    m._ctrl[used_idx] = used


@needs_native
class TestRehashParity:
    @pytest.mark.parametrize("name", sorted(_CACHES))
    def test_native_rehash_matches_python(self, name):
        key, key2, value, mask_idx, used_idx, grow = _CACHES[name]
        managers = []
        for native in (True, False):
            m = BDDManager(4, native=native)
            stats = m.enable_stats()
            m.apply_and(m.var(0), m.var(1))
            m._ensure_quantify_caches()
            _fill_cache(m, name, seed=11)
            grow(m)
            _fill_cache(m, name, seed=12)  # a second generation
            grow(m)
            managers.append((m, stats))
        (nat, nat_stats), (py, py_stats) = managers
        for attr in (key, key2, value):
            if attr:
                assert getattr(nat, attr) == getattr(py, attr), attr
        assert len(getattr(nat, key)) == 4 * mgr._OPCACHE_INIT
        assert nat._ctrl[mask_idx] == py._ctrl[mask_idx]
        assert nat._ctrl[used_idx] == py._ctrl[used_idx]
        assert nat_stats.cache_evicted == py_stats.cache_evicted
        if name in ("ex", "fa", "ae"):
            assert nat_stats.cache_evicted == 0
        else:
            assert nat_stats.cache_evicted > 0


class _CodeRecorder:
    """Stands in for a manager's kernel library: checks that every entry
    point runs on a context bound to the manager's current arrays, and
    records every negative (growth) code it returns."""

    def __init__(self, manager):
        self._manager = manager
        self._lib = manager._lib
        self.codes = set()

    def _check_ctx(self, ctx):
        m = self._manager
        ffi = m._ffi
        fields = ffi.typeof("bdd_ctx").fields
        assert len(fields) == len(mgr._CTX_ATTRS)
        for (field, _), attr in zip(fields, mgr._CTX_ATTRS):
            assert field == {"_stat_arr": "stats"}.get(attr, attr[1:])
            arr = getattr(m, attr)
            want = 0 if arr is None else arr.buffer_info()[0]
            assert int(ffi.cast("intptr_t", getattr(ctx, field))) == want

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def call(*args):
            if not name.startswith("bdd_rehash"):
                self._check_ctx(args[0])
            result = fn(*args)
            if result is not None and result < 0:
                self.codes.add(result)
            return result

        return call


def _shrink_op_caches(m, slots=4):
    """Replace every op cache by an empty ``slots``-entry one, so the
    next operation thrashes it mid-call."""
    from array import array

    for name in ("and", "or", "xor", "not", "ite"):
        key, key2, value, mask_idx, used_idx, _ = _CACHES[name]
        for attr in (key, key2, value):
            if attr:
                setattr(m, attr, array("q", bytes(8 * slots)))
        m._ctrl[mask_idx] = slots - 1
        m._ctrl[used_idx] = 0
    m._drop_ctx()


def _growth_script(m):
    """Operations that grow every table from its initial size, most of
    them inside native calls.  Returns the result log."""
    f = g = h = FALSE
    for i in range(13):
        f = m.apply_xor(f, m.var(i))
        g = m.apply_xor(g, m.var(i + 1))
        h = m.apply_xor(h, m.var(i + 2))
    log = []
    for op in (
        lambda: m.apply_and(f, g),
        lambda: m.apply_or(f, g),
        lambda: m.apply_xor(f, h),
        lambda: m.negate(f),
        lambda: m.ite(f, g, h),
    ):
        _shrink_op_caches(m)
        log.append(op())
    log += _random_workload(m, steps=3000, num_vars=15)
    rng = random.Random(3)
    nodes = log[-200:]
    for _ in range(300):
        cube = sorted(rng.sample(range(15), 4))
        a, b = rng.choice(nodes), rng.choice(nodes)
        log.append(quantify.exists(m, a, cube))
        log.append(quantify.forall(m, b, cube))
        log.append(quantify.and_exists(m, a, b, cube))
    return log


@needs_native
class TestKernelContext:
    def test_growth_inside_native_calls_keeps_node_ids(self):
        nat = BDDManager(16, native=True)
        recorder = _CodeRecorder(nat)
        nat._lib = recorder
        py = BDDManager(16, native=False)
        assert _growth_script(nat) == _growth_script(py)
        assert nat.num_nodes == py.num_nodes
        assert nat.cache_capacities()["exists"] > mgr._QCACHE_INIT
        assert {-1, -2, -4, -5, -6, -7, -8, -9, -10} <= recorder.codes

    def test_one_bind_per_table_generation(self):
        m = BDDManager(16, native=True)
        events = []
        bind, drop = m._bind_ctx, m._drop_ctx

        def counted_bind():
            events.append("bind")
            return bind()

        def counted_drop():
            events.append("drop")
            drop()

        m._bind_ctx = counted_bind
        m._drop_ctx = counted_drop
        log = _growth_script(m)
        assert events.count("bind") > 10
        # Each bind follows at least one swap: no generation is bound
        # twice, and no call runs on a context from an older one.
        for before, after in zip(events, events[1:]):
            assert (before, after) != ("bind", "bind")
        assert events[0] == "drop"

        # Warm repeats hit the caches and reuse the bound context.
        f, g = log[0], log[1]

        def warm_calls():
            for _ in range(200):
                m.apply_and(f, g)
                m.apply_or(f, g)
                m.negate(f)

        warm_calls()
        events.clear()
        warm_calls()
        assert events == []
