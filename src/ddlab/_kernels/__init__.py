"""Kernel backend selection: compiled extension with pure-Python fallback.

The compiled backend is ``_gf2ext``, a hand-written CPython extension whose
one source file, ``_gf2ext.c``, lives in this package.  It has one build
path: on first import that file is compiled with the interpreter's own
``sysconfig`` toolchain into ``$XDG_CACHE_HOME/ddlab/`` (default
``~/.cache/ddlab/``), under a name carrying a hash of the source, and loaded
from there as ``ddlab._kernels._gf2ext``; a build removes the cached builds
of other versions of the source.  When that is impossible (no compiler, no
``Python.h``, a failed build), the pure-Python twin ``_pure`` is used;
importing this package never fails for want of a compiler.

Set DDLAB_PURE=1 in the environment to force the pure backend; no build is
then attempted.  ``BACKEND`` is ``"cython"`` (the compiled backend's name
from when it was generated with Cython, kept for the scripts that read it)
or ``"pure"``; ``BACKEND_DETAIL`` says in one line which path ran: the
source and the cached build for ``"cython"``, the reason for ``"pure"``.
"""

import contextlib
import hashlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

from . import _pure

_EXT_NAME = __name__ + "._gf2ext"
_SOURCE = Path(__file__).with_name("_gf2ext.c")


class _BuildUnavailable(Exception):
    """The compiled kernels cannot be built here; the message says why."""


def _cache_dir():
    root = os.environ.get("XDG_CACHE_HOME")
    if not root or not os.path.isabs(root):  # as the XDG spec says
        root = Path.home() / ".cache"
    return Path(root) / "ddlab"


def _compile(target):
    """Compile _SOURCE into the extension module file `target`.

    Mirrors what setuptools does with the same sysconfig variables: compile
    with CC CFLAGS CCSHARED, link with LDSHARED.  The result is written
    under a temporary name and moved into place, so concurrent importers
    never load a half-written file.
    """
    config = sysconfig.get_config_vars()
    cc = shlex.split(config.get("CC") or "")
    ldshared = shlex.split(config.get("LDSHARED") or "")
    if not cc or not ldshared or shutil.which(cc[0]) is None:
        raise _BuildUnavailable(f"no C compiler (CC={config.get('CC')!r})")
    include = sysconfig.get_path("include")
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise _BuildUnavailable(f"no Python.h in {include}")
    cflags = shlex.split(config.get("CFLAGS") or "") \
        + shlex.split(config.get("CCSHARED") or "") + ["-I", include]
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        obj = os.path.join(tmp, "_gf2ext.o")
        lib = os.path.join(tmp, target.name)
        for cmd in (cc + cflags + ["-c", str(_SOURCE), "-o", obj],
                    ldshared + [obj, "-o", lib]):
            run = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                                 capture_output=True, text=True)
            if run.returncode:
                last = (run.stderr or run.stdout).strip().splitlines()[-1:]
                raise _BuildUnavailable(
                    f"{cmd[0]} exited {run.returncode}: {' '.join(last)}")
        os.replace(lib, target)


def _load_compiled():
    """Load the compiled kernels from the cache, building them from
    _SOURCE first if needed.

    Returns the module and the BACKEND_DETAIL line.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    if not suffix:
        raise _BuildUnavailable("the interpreter reports no EXT_SUFFIX")
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    target = _cache_dir() / f"_gf2ext-{digest}{suffix}"
    if not target.exists():
        _compile(target)
        # builds of other _gf2ext.c versions for this interpreter are
        # never loaded again; builds for other interpreters are kept.  A
        # build that cannot be removed costs disk space, not the backend.
        for stale in target.parent.iterdir():
            if (stale != target and stale.name.startswith("_gf2ext-")
                    and stale.name.endswith(suffix)):
                with contextlib.suppress(OSError):
                    stale.unlink()
    spec = importlib.util.spec_from_file_location(_EXT_NAME, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_EXT_NAME] = module
    return module, f"cython: built from {_SOURCE}, loaded from {target}"


if os.environ.get("DDLAB_PURE"):
    _impl, BACKEND, BACKEND_DETAIL = _pure, "pure", "pure: DDLAB_PURE is set"
else:
    try:
        _impl, BACKEND_DETAIL = _load_compiled()
        BACKEND = "cython"
    # a toolchain can fail in more ways than can be listed; the contract
    # is the pure fallback with the reason recorded, never an import error
    except Exception as exc:
        _impl, BACKEND = _pure, "pure"
        BACKEND_DETAIL = f"pure: compiled kernels unavailable ({exc})"

gf2_rank = _impl.gf2_rank
rref_basis = _impl.rref_basis
span_members = _impl.span_members
union_of_max_subspaces = _impl.union_of_max_subspaces

__all__ = [
    "BACKEND",
    "BACKEND_DETAIL",
    "gf2_rank",
    "rref_basis",
    "span_members",
    "union_of_max_subspaces",
]
