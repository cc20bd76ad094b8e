"""Cross-checks between the compiled and pure kernel backends, brute-force
oracles, and the build of the compiled kernels from _gf2ext.c."""

import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from ddlab import _kernels, gf2core
from ddlab._kernels import _pure
from ddlab.errors import DimensionExhausted

# the compiled module is built here even when DDLAB_PURE=1 picks the pure
# backend for the package; only a build that cannot run skips its tests
try:
    _gf2ext, _ = _kernels._load_compiled()
except _kernels._BuildUnavailable:
    _gf2ext = None

BACKENDS = [_pure] + ([_gf2ext] if _gf2ext else [])


def oracle_span(vectors):
    """Every XOR combination, by brute enumeration of subsets."""
    vs = list(vectors)
    out = set()
    for mask in range(1 << len(vs)):
        acc = 0
        for i, v in enumerate(vs):
            if mask >> i & 1:
                acc ^= v
        out.add(acc)
    return out


@pytest.mark.parametrize("impl", BACKENDS)
def test_span_members_matches_oracle(impl):
    rng = random.Random(2)
    for _ in range(100):
        d = rng.randint(1, 6)
        vs = [rng.getrandbits(d) for _ in range(rng.randint(0, 5))]
        assert set(impl.span_members(vs)) == oracle_span(vs)
        assert list(impl.span_members(vs)) == sorted(impl.span_members(vs))
    # unsorted with duplicates, and a one-shot iterator
    assert impl.span_members([6, 3, 6, 5, 3]) == (0, 3, 5, 6)
    assert impl.span_members(iter([4, 1, 4])) == (0, 1, 4, 5)


@pytest.mark.parametrize("impl", BACKENDS)
def test_rank_is_log_of_span(impl):
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 8)
        vs = [rng.getrandbits(d) for _ in range(rng.randint(0, 6))]
        assert 1 << impl.gf2_rank(vs) == len(impl.span_members(vs))


@pytest.mark.parametrize("impl", BACKENDS)
def test_rref_basis_is_canonical(impl):
    rng = random.Random(4)
    for _ in range(100):
        d = rng.randint(1, 8)
        vs = [rng.getrandbits(d) for _ in range(rng.randint(1, 6))]
        basis = impl.rref_basis(vs)
        shuffled = list(vs)
        rng.shuffle(shuffled)
        assert impl.rref_basis(shuffled) == basis
        assert list(basis) == sorted(basis)
        for i, b in enumerate(basis):
            lead = b.bit_length() - 1
            for j, other in enumerate(basis):
                if i != j:
                    assert not other >> lead & 1  # leading bits exclusive


def oracle_extend(avoid, count, dim):
    """`count` picks, each the least vector outside the span so far."""
    current = oracle_span(avoid)
    picks = []
    for _ in range(count):
        v = min(x for x in range(1 << dim) if x not in current)
        picks.append(v)
        current |= {v ^ w for w in current}
    return picks


@pytest.mark.parametrize("impl", BACKENDS)
def test_extend_independent_matches_oracle(impl, monkeypatch):
    # gf2core reads its one kernel, rref_basis, from the _kernels module
    monkeypatch.setattr(_kernels, "rref_basis", impl.rref_basis)
    rng = random.Random(8)
    for _ in range(2000):
        d = rng.randint(1, 9)
        avoid = []
        for _ in range(rng.randint(0, d + 2)):
            roll = rng.random()
            if roll < 0.15:
                avoid.append(0)
            elif roll < 0.45 and avoid:  # a duplicate or a dependent vector
                avoid.append(rng.choice(avoid) ^ rng.choice([0] + avoid))
            else:
                avoid.append(rng.getrandbits(d))
        rank = _pure.gf2_rank(avoid)
        count = rng.randint(0, d - rank)
        assert gf2core.extend_independent(avoid, count, d) \
            == oracle_extend(avoid, count, d), (avoid, count, d)
        with pytest.raises(DimensionExhausted,
                           match=f"^rank {rank} \\+ {d - rank + 1} "
                                 f"exceeds dim {d}$"):
            gf2core.extend_independent(avoid, d - rank + 1, d)


@pytest.mark.parametrize("impl", BACKENDS)
def test_span_members_beyond_rank_8(impl):
    # ranks past 8 outgrow the compiled kernel's stack buffer
    rng = random.Random(4)
    for rank in (9, 10, 12):
        basis = [(1 << i) | rng.getrandbits(i) for i in range(rank)]
        rng.shuffle(basis)
        members = impl.span_members(basis)
        assert len(members) == 1 << rank
        assert list(members) == sorted(set(members))
        assert members == _pure.span_members(basis)
        assert impl.rref_basis(members) == impl.rref_basis(basis)


@pytest.mark.parametrize("impl", BACKENDS)
def test_union_of_max(impl):
    # the set {0,1,2,3} u {4}: the plane beats every line
    card, union = impl.union_of_max_subspaces([0, 1, 2, 3, 4])
    assert card == 4 and union == (0, 1, 2, 3)
    # two maximal lines tie: their union is everything
    card, union = impl.union_of_max_subspaces([0, 1, 2])
    assert card == 2 and union == (0, 1, 2)
    card, union = impl.union_of_max_subspaces([0])
    assert card == 1 and union == (0,)
    # unsorted with duplicates, and a one-shot iterator
    assert impl.union_of_max_subspaces([3, 0, 2, 3, 1, 4, 0]) \
        == (4, (0, 1, 2, 3))
    assert impl.union_of_max_subspaces(iter([5, 0, 4, 1, 6])) \
        == (4, (0, 1, 4, 5))
    with pytest.raises(ValueError):
        impl.union_of_max_subspaces([1, 2])
    # the missing 0 is reported before the compiled width cap
    with pytest.raises(ValueError, match="^union_of_max_subspaces needs 0"):
        impl.union_of_max_subspaces([1 << 24])


@pytest.mark.skipif(_gf2ext is None, reason="compiled kernels unavailable")
def test_backends_agree():
    rng = random.Random(6)
    for _ in range(300):
        d = rng.randint(1, 9)
        vs = [rng.getrandbits(d) for _ in range(rng.randint(0, 7))]
        assert _gf2ext.rref_basis(vs) == _pure.rref_basis(vs)
        assert _gf2ext.span_members(vs) == _pure.span_members(vs)
        members = {0} | set(_gf2ext.span_members(vs)) \
            | {rng.getrandbits(d) for _ in range(4)}
        ordered = sorted(members)
        assert _gf2ext.union_of_max_subspaces(ordered) \
            == _pure.union_of_max_subspaces(ordered)


def test_pure_fast_path_agrees_with_the_full_search():
    # a subspace X inside S with 3|X| > 2|S| is the answer; two planes
    # sharing a line (|X| = 4, |S| = 6) sit just below that threshold
    planes = {0, 1, 2, 3, 4, 5}
    assert _pure._dominant_subspace(planes) is None
    assert _pure.union_of_max_subspaces(planes) == (4, (0, 1, 2, 3, 4, 5))
    # a random subspace U with m points added, on both sides of |U| > 2m,
    # and random sets, where the fast path rarely applies; on all of them
    # it applies exactly when the answer is above the threshold
    rng = random.Random(44)
    fired = {True: 0, False: 0}
    for i in range(600):
        d = rng.randint(2, 6)
        vectors = [rng.getrandbits(d) for _ in range(rng.randint(1, d))]
        members = set(_pure.span_members(vectors)) if i % 3 else {0}
        members |= {rng.getrandbits(d)
                    for _ in range(rng.randint(0, max(len(members), 12)))}
        full = _pure._search_max_subspaces(members)
        dominant = _pure._dominant_subspace(members)
        assert (dominant is not None) == (3 * full[0] > 2 * len(members))
        if dominant is not None:
            assert (len(dominant), tuple(sorted(dominant))) == full
        fired[dominant is not None] += 1
        assert _pure.union_of_max_subspaces(sorted(members)) == full
    assert min(fired.values()) > 100


@pytest.mark.skipif(_gf2ext is None, reason="compiled kernels unavailable")
def test_compiled_kernels_reject_bad_vectors():
    for kernel in (_gf2ext.rref_basis, _gf2ext.gf2_rank, _gf2ext.span_members):
        with pytest.raises(ValueError, match="^vector exceeds the 24-bit"):
            kernel([3, 1 << 24])
        with pytest.raises(OverflowError):
            kernel([-1])
        with pytest.raises(TypeError):
            kernel(["1"])
        with pytest.raises(TypeError, match="must be iterable"):
            kernel(5)
        assert kernel([(1 << 24) - 1]) == kernel(iter([(1 << 24) - 1]))
    with pytest.raises(ValueError, match="^vector exceeds the 24-bit"):
        _gf2ext.union_of_max_subspaces([0, 1 << 24])
    with pytest.raises(ValueError, match="^union_of_max_subspaces needs 0"):
        _gf2ext.union_of_max_subspaces([0, -1])
    with pytest.raises(TypeError, match="must be iterable"):
        _gf2ext.union_of_max_subspaces(5)


KERNELS_DIR = Path(_kernels.__file__).parent
SRC_DIR = KERNELS_DIR.parent.parent

_CC = shlex.split(sysconfig.get_config_var("CC") or "")
HAVE_COMPILER = bool(_CC) and shutil.which(_CC[0]) is not None
HAVE_PYTHON_H = os.path.isfile(
    os.path.join(sysconfig.get_path("include"), "Python.h"))


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
@pytest.mark.skipif(not HAVE_PYTHON_H, reason="no Python.h")
def test_kernel_source_compiles_without_warnings(tmp_path):
    config = sysconfig.get_config_vars()
    cmd = (_CC + shlex.split(config.get("CFLAGS") or "")
           + shlex.split(config.get("CCSHARED") or "")
           + ["-Wall", "-Werror", "-I", sysconfig.get_path("include"),
              "-c", str(KERNELS_DIR / "_gf2ext.c"),
              "-o", str(tmp_path / "_gf2ext.o")])
    run = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr


def _import_kernels(cache, prelude="", **env):
    """Import ddlab._kernels in a fresh interpreter whose cache is `cache`.

    Returns BACKEND, BACKEND_DETAIL and the docstring of `rref_basis`.
    """
    env = {k: v for k, v in os.environ.items() if k != "DDLAB_PURE"} | {
        "PYTHONPATH": str(SRC_DIR), "XDG_CACHE_HOME": str(cache), **env}
    code = (prelude
            + "import ddlab._kernels as k; print(k.BACKEND); "
              "print(k.BACKEND_DETAIL); print(ascii(k.rref_basis.__doc__))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    backend, detail, doc = run.stdout.splitlines()
    return backend, detail, doc


def _select_backend(cache, prelude="", **env):
    """BACKEND and BACKEND_DETAIL of a fresh import (see _import_kernels)."""
    return _import_kernels(cache, prelude, **env)[:2]


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
@pytest.mark.skipif(not HAVE_PYTHON_H, reason="no Python.h")
def test_import_builds_compiled_kernels_from_c(tmp_path):
    backend, detail = _select_backend(tmp_path)
    assert backend == "cython", detail
    built = list((tmp_path / "ddlab").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_gf2ext-")
    assert str(built[0]) in detail
    first = built[0].stat()
    # the second import loads the cached module without rebuilding
    assert _select_backend(tmp_path) == (backend, detail)
    assert list((tmp_path / "ddlab").iterdir()) == built
    again = built[0].stat()
    assert (again.st_ino, again.st_mtime_ns) \
        == (first.st_ino, first.st_mtime_ns)


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
@pytest.mark.skipif(not HAVE_PYTHON_H, reason="no Python.h")
def test_build_prunes_stale_builds(tmp_path):
    cache = tmp_path / "ddlab"
    cache.mkdir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    stale = cache / f"_gf2ext-0000000000000000{suffix}"
    other = cache / "_gf2ext-0000000000000000.other-interpreter.so"
    stale.write_bytes(b"a build of an older _gf2ext.c")
    other.write_bytes(b"a build for another interpreter")
    backend, detail = _select_backend(tmp_path)
    assert backend == "cython", detail
    built = sorted(p for p in cache.iterdir() if p != other)
    assert len(built) == 1 and built[0] != stale
    assert str(built[0]) in detail and other.exists()
    # a warm import loads the cached module and removes nothing
    stale.write_bytes(b"planted after the build")
    assert _select_backend(tmp_path) == (backend, detail)
    assert sorted(cache.iterdir()) == sorted([built[0], stale, other])


def test_pure_opt_out_builds_nothing(tmp_path):
    backend, detail = _select_backend(tmp_path, DDLAB_PURE="1")
    assert (backend, detail) == ("pure", "pure: DDLAB_PURE is set")
    assert list(tmp_path.iterdir()) == []


def test_failed_build_falls_back_to_pure(tmp_path):
    failing_cc = shlex.join(
        [sys.executable, "-c", "import sys; sys.exit('simulated failure')"])
    prelude = ("import sysconfig\n"
               f"sysconfig.get_config_vars()['CC'] = {failing_cc!r}\n")
    backend, detail = _select_backend(tmp_path, prelude)
    assert backend == "pure"
    assert detail.startswith("pure: compiled kernels unavailable (")
    assert "simulated failure" in detail or "Python.h" in detail
    assert not any((tmp_path / "ddlab").glob("_gf2ext-*"))


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
@pytest.mark.skipif(not HAVE_PYTHON_H, reason="no Python.h")
def test_module_beside_the_source_is_not_loaded(tmp_path):
    # a build left next to _gf2ext.c, then the source edited: the import
    # must build and load the edited source, never the stale module
    copy = tmp_path / "src"
    shutil.copytree(SRC_DIR / "ddlab", copy / "ddlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernels = copy / "ddlab" / "_kernels"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    _kernels._compile(kernels / f"_gf2ext{suffix}")
    source = kernels / "_gf2ext.c"
    old = "Reduced row-echelon basis of the span, as an ascending tuple."
    new = "Edited after the build beside the source."
    text = source.read_text()
    assert old in text
    source.write_text(text.replace(old, new))
    backend, detail, doc = _import_kernels(tmp_path / "cache",
                                           PYTHONPATH=str(copy))
    assert backend == "cython", detail
    assert detail.startswith(f"cython: built from {source}, loaded from "
                             f"{tmp_path / 'cache' / 'ddlab'}"), detail
    assert doc == ascii(new)


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
@pytest.mark.skipif(not HAVE_PYTHON_H, reason="no Python.h")
def test_built_package_ships_and_builds_the_source(tmp_path):
    # build_py writes an egg-info beside the sources, so it runs on a copy
    stage = tmp_path / "stage"
    shutil.copytree(SRC_DIR, stage / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(SRC_DIR.parent / "pyproject.toml", stage)
    out = tmp_path / "lib"
    run = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "--build-lib", str(out)],
        cwd=stage, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=600)
    assert run.returncode == 0, run.stderr
    shipped = out / "ddlab" / "_kernels" / "_gf2ext.c"
    assert shipped.read_bytes() == (KERNELS_DIR / "_gf2ext.c").read_bytes()
    backend, detail = _select_backend(tmp_path / "cache", PYTHONPATH=str(out))
    assert backend == "cython", detail
    assert detail.startswith(f"cython: built from {shipped}, "), detail
