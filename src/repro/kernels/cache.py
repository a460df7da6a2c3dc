"""Compiled-program cache.

Compiling a kernel (unroll, cluster-assign, schedule, allocate) is the
most expensive non-simulation step of every experiment, and the same
twelve Table 1 programs are needed by table1, fig4, fig6 and fig10
alike.  The process-wide default cache (:func:`get_default_cache`) is
an :class:`~repro.artifacts.ArtifactCache` that memoizes compiled
:class:`~repro.compiler.program.VLIWProgram` objects in memory and,
when the shared cache directory is set, as ``<key>.pkl`` pickles that
every worker process of a host reuses.

Cache keys fold in a digest of the compiler/IR/kernel sources, so
editing the compiler invalidates stale entries instead of serving
them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from functools import partial

from repro.artifacts import ArtifactCache, Codec, default_cache, set_cache_dir
from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import compile_kernel

__all__ = [
    "cache_key",
    "get_default_cache",
    "program_cache",
    "set_cache_dir",
    "source_digest",
]

#: packages whose source text participates in the cache key — anything
#: that can change the bits of a compiled program.
_FINGERPRINT_PACKAGES = ("arch", "compiler", "ir", "isa", "kernels")

_source_digest_memo: str | None = None


def source_digest() -> str:
    """Digest of every source file that affects compilation output."""
    global _source_digest_memo
    if _source_digest_memo is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        h = hashlib.sha256()
        for pkg in _FINGERPRINT_PACKAGES:
            pkg_dir = os.path.join(root, pkg)
            for name in sorted(os.listdir(pkg_dir)):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(pkg_dir, name)
                h.update(name.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        _source_digest_memo = h.hexdigest()[:16]
    return _source_digest_memo


def machine_fingerprint(machine) -> str:
    """Stable textual identity of a machine description."""
    lat = ",".join(f"{k.name}={v}" for k, v in sorted(
        machine.latency.items(), key=lambda kv: kv[0].name))
    return (
        f"{machine.name}|c={machine.n_clusters}|{machine.cluster}"
        f"|lat[{lat}]|xfer={machine.xfer_latency}"
        f"|tbp={machine.taken_branch_penalty}|regs={machine.regs_per_cluster}"
    )


def options_fingerprint(options: CompilerOptions) -> str:
    return (
        f"unroll={sorted(options.unroll.items())}"
        f"|scale={options.unroll_scale}|iv={options.iv_split}"
        f"|spec={options.speculate}|policy={options.cluster_policy}"
        f"|dce={options.dce}|maxbr={options.max_branches_per_instr}"
    )


def cache_key(spec, machine, options: CompilerOptions | None = None) -> str:
    """Hex key identifying one (kernel, machine, options, code) build."""
    options = options or CompilerOptions()
    text = "\n".join([
        source_digest(),
        f"kernel={spec.name}|class={spec.ilp_class}"
        f"|hints={sorted(spec.unroll.items())}",
        machine_fingerprint(machine),
        options_fingerprint(options),
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def _compile(spec, machine, options: CompilerOptions | None = None):
    return compile_kernel(spec.build(), machine, options or CompilerOptions(),
                          unroll_hints=dict(spec.unroll))


#: programs are stored as pickles.
PICKLE = Codec(".pkl", partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL),
               pickle.loads)


def program_cache(directory: str | None = None) -> ArtifactCache:
    """A compiled-program cache: ``get(spec, machine, options=None)``."""
    return ArtifactCache(cache_key, _compile, PICKLE, directory)


#: the process-wide cache every ``compile_spec`` call routes through.
_default_cache = default_cache(program_cache())


def get_default_cache() -> ArtifactCache:
    return _default_cache
