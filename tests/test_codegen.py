"""Generated cycle-loop codegen: keys, the artifact cache, decision
equivalence.

The JIT engine's correctness rests on two contracts checked here at the
codegen layer (the engine-level differential suite covers the rest):

* the generated source is a pure function of its shape key — same
  inputs, byte-identical source, so the disk cache can be shared by
  concurrent workers and across processes;
* the inlined selection tree makes exactly the decisions of
  ``SchemePlan.select_ports`` for every ready pattern and every
  rotation (a hypothesis property over real instruction summaries).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_machine
from repro.artifacts import cache_dir, set_cache_dir
from repro.kernels import SUITE, by_name, compile_spec
from repro.kernels.cache import get_default_cache, program_cache
from repro.merge import get_scheme
from repro.merge.packet import MergeRules
from repro.sim import codegen
from repro.sim.cache import Cache, CacheConfig, PerfectCache
from repro.sim.codegen import (
    _select_tree_lines,
    get_loop_cache,
    loop_cache,
    loop_source,
    source_key,
)

MACHINE = paper_machine()
RULES = MergeRules(MACHINE)
I_DESC = codegen.cache_descriptor(PerfectCache())
D_DESC = codegen.cache_descriptor(Cache(CacheConfig()))

#: schemes with distinct tree shapes: pure SMT / pure CSMT cascades,
#: mixed, parallel-CSMT and a 2-port block.
TREE_SCHEMES = ("3SSS", "3CCC", "2SC3", "2SS", "2CC", "2CS", "1C")


def _shape(name: str):
    scheme = get_scheme(name)
    plan = scheme.compile(RULES)
    return scheme, plan, scheme.port_permutations()


def _loop_args(name: str, rotate: bool = True):
    scheme, plan, perms = _shape(name)
    return (scheme.n_ports, perms, plan.steps, RULES.caps_high,
            RULES.high, I_DESC, D_DESC,
            MACHINE.taken_branch_penalty, rotate)


class TestSourceKey:
    def test_source_is_deterministic(self):
        args = _loop_args("2SC3")
        assert loop_source(*args) == loop_source(*args)
        assert source_key(*args) == source_key(*args)

    def test_key_separates_shapes(self):
        keys = {source_key(*_loop_args(n)) for n in TREE_SCHEMES}
        assert len(keys) == len(TREE_SCHEMES)  # steps are in the key
        base = _loop_args("3CCC")
        assert source_key(*base) != source_key(*_loop_args("3CCC", False))
        tweaked = base[:7] + (base[7] + 1, base[8])
        assert source_key(*base) != source_key(*tweaked)  # branch penalty

    def test_generated_source_carries_shape_header(self):
        src = loop_source(*_loop_args("3SSS"))
        assert "# scheme: steps=" in src
        assert "def _jit_loop" in src


#: (cache factory, get() arguments) of both compiled-artifact caches.
CACHE_KINDS = {
    "program": (program_cache, lambda: (SUITE[0], MACHINE)),
    "loop": (loop_cache, lambda: _loop_args("3CCC")),
}


@pytest.fixture(params=sorted(CACHE_KINDS))
def kind(request):
    factory, args = CACHE_KINDS[request.param]
    return factory, args()


class TestArtifactCache:
    def test_memory_then_disk_hits(self, tmp_path, kind):
        factory, args = kind
        cache = factory(str(tmp_path))
        value = cache.get(*args)
        assert (cache.compiles, cache.memory_hits, cache.disk_hits) \
            == (1, 0, 0)
        assert cache.get(*args) is value
        assert cache.memory_hits == 1
        # a second cache over the same directory loads the stored
        # entry instead of rebuilding (what pool workers share).
        other = factory(str(tmp_path))
        other.get(*args)
        assert (other.compiles, other.disk_hits) == (0, 1)
        assert cache.compile_seconds > 0
        assert set(cache.stats()) == {"compiles", "memory_hits",
                                      "disk_hits", "disk_errors",
                                      "compile_seconds", "directory"}

    def test_memory_cap_drops_and_recompiles_from_disk(self, tmp_path):
        assert program_cache().cap is None  # programs stay uncapped
        cache = loop_cache(str(tmp_path))
        cache.cap = 2
        for name in ("3CCC", "3SSS", "2SC3"):
            cache.get(*_loop_args(name))
        assert len(cache._memory) <= 2
        cache.get(*_loop_args("3CCC"))  # evicted: reload from disk
        assert cache.disk_hits >= 1

    def test_corrupt_disk_entry_is_quarantined_and_recompiled(
            self, tmp_path, kind):
        """A truncated/hand-edited cached entry must never wedge a run:
        it is renamed to ``.bad`` for post-mortem, counted in
        ``disk_errors``, and the artifact is rebuilt."""
        factory, args = kind
        seed = factory(str(tmp_path))
        value = seed.get(*args)
        path = seed.path(seed.key(*args))
        with open(path, "wb") as f:
            f.write(b"def _jit_loop(:  # truncated mid-write\n")

        cache = factory(str(tmp_path))
        rebuilt = cache.get(*args)
        assert rebuilt is not None and rebuilt is not value
        assert (cache.compiles, cache.disk_hits, cache.disk_errors) \
            == (1, 0, 1)
        assert os.path.exists(path + ".bad")  # moved aside for post-mortem
        # the rebuilt entry was re-stored and serves disk hits again
        fresh = factory(str(tmp_path))
        fresh.get(*args)
        assert (fresh.compiles, fresh.disk_hits, fresh.disk_errors) \
            == (0, 1, 0)

    def test_valid_source_missing_entry_point_is_corrupt(self, tmp_path):
        """Loop corruption detection is 'compiles AND defines
        _jit_loop', not just a syntax check."""
        args = _loop_args("3SSS")
        seed = loop_cache(str(tmp_path))
        seed.get(*args)
        with open(seed.path(source_key(*args)), "w", encoding="utf-8") as f:
            f.write("x = 1  # syntactically fine, no _jit_loop\n")
        cache = loop_cache(str(tmp_path))
        assert callable(cache.get(*args))
        assert cache.disk_errors == 1

    def test_unwritable_directory_counts_store_errors(self, tmp_path, kind):
        """Disk stores are best-effort: a directory that cannot be
        created (it sits under a regular file, which binds root too)
        degrades to memory-only operation, counted, never raising."""
        factory, args = kind
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = factory(str(blocker / "cache"))
        value = cache.get(*args)
        assert value is not None
        assert cache.disk_errors == 1
        assert cache.stats()["disk_errors"] == 1
        assert cache.get(*args) is value

    def test_set_cache_dir_redirects_both_defaults(self, tmp_path):
        prev = cache_dir()
        try:
            set_cache_dir(str(tmp_path))
            assert get_default_cache().directory == str(tmp_path)
            assert get_loop_cache().directory == str(tmp_path)
        finally:
            set_cache_dir(prev)
        assert get_default_cache().directory == prev
        assert get_loop_cache().directory == prev


# -- decision equivalence ---------------------------------------------------

def _mop_pool():
    """Real instruction summaries (mask, packed) from a compiled bench."""
    prog = compile_spec(by_name("mcf"), MACHINE)
    pool, seen = [], set()
    for blk in prog.blocks:
        for mop in blk.mops:
            if (mop.mask, mop.packed) not in seen:
                seen.add((mop.mask, mop.packed))
                pool.append(mop)
    return pool


MOP_POOL = _mop_pool()
_TREE_FNS: dict = {}


def _tree_fn(name: str, perm, mask: int):
    """Compile one (scheme, rotation, ready-mask) selection tree."""
    key = (name, perm, mask)
    fn = _TREE_FNS.get(key)
    if fn is None:
        _scheme, plan, _perms = _shape(name)
        n = len(perm)
        lines = ["def _tree(" + ", ".join(f"mop{s}" for s in range(n))
                 + "):"]
        lines += _select_tree_lines(
            perm, mask, plan.steps, RULES.caps_high, RULES.high, "    ",
            lambda sel, pad: [f"{pad}return {sel!r}"])
        namespace: dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated test fn
        fn = _TREE_FNS[key] = namespace["_tree"]
    return fn


class TestDecisionEquivalence:
    """The inlined tree == ``SchemePlan.select_ports``, decision for
    decision, over real instruction summaries."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_tree_matches_select_ports(self, data):
        name = data.draw(st.sampled_from(TREE_SCHEMES))
        scheme, plan, perms = _shape(name)
        n = scheme.n_ports
        perm = data.draw(st.sampled_from(list(perms)))
        mask = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
        mops = [data.draw(st.sampled_from(MOP_POOL)) for _ in range(n)]
        got = _tree_fn(name, tuple(perm), mask)(*mops)
        args = []
        for port in range(n):
            slot = perm[port]
            if mask & (1 << slot):
                args += [mops[slot].mask, mops[slot].packed]
            else:
                args += [-1, 0]
        assert got == plan.select_ports(*args)
