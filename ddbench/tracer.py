"""Per-layer spans recorded from outside ddlab, and the kernel replay.

`Tracer.install` replaces each function named in SPANS by a wrapper, in
every ddlab module that holds it (a name bound with `from ... import` lives
in the importing module too) or on its class.  A wrapper counts calls and
adds the call's self time: its duration minus the time of the spans that
ran inside it.  Totals are kept per function, never per call, because some
functions run millions of times in a round.  Nothing is changed inside
src/ddlab.
"""

import functools
import random
import statistics
import sys
import time

from ddlab.errors import GroundExhausted, MajorityTie

SAMPLE = 100  # kernel inputs kept per kernel for the replay


def _members_in(entry, args, result, exc):
    entry.extra["members_in"] += len(args[0])


def _elements(entry, args, result, exc):
    entry.extra["elements"] += len(args[1])


def _general_outcome(entry, args, result, exc):
    if exc is None:
        entry.extra["recovered"] += 1
    elif isinstance(exc, GroundExhausted):
        entry.extra["inadmissible"] += 1


def _dichotomy(entry, args, result, exc):
    if exc is None:
        entry.extra["invariant" if result.invariant else "not_invariant"] += 1


def _ties(entry, args, result, exc):
    # recursive_support recurses through sections; count the outermost tie
    if isinstance(exc, MajorityTie) and entry.depth == 0:
        entry.extra[exc.stage] += 1


def _cli_output(entry, args, result, exc):
    argv = args[0] if args else []
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as handle:
            data = handle.read()
        entry.extra["records"] += data.count(b"\n")
        entry.extra["bytes"] += len(data)


def _closure_keys(entry, args, result, exc):
    op, subset = args
    key = frozenset(subset)
    seen = entry.seen.setdefault(id(op), (op, set()))[1]
    if key not in seen:
        seen.add(key)
        entry.extra["distinct"] += 1


# (metric prefix, module, attribute or Class.attribute, counters, hook)
SPANS = (
    ("kernels.union_of_max_subspaces", "ddlab._kernels",
     "union_of_max_subspaces", ("members_in",), _members_in),
    ("kernels.span_members", "ddlab._kernels", "span_members", (), None),
    ("kernels.rref_basis", "ddlab._kernels", "rref_basis", (), None),
    ("kernels.gf2_rank", "ddlab._kernels", "gf2_rank", (), None),
    ("gf2core.LinearMap.apply", "ddlab.gf2core", "LinearMap.apply", (), None),
    ("gf2core.LinearMap.apply_set", "ddlab.gf2core", "LinearMap.apply_set",
     ("elements",), _elements),
    ("gf2core.fixing_linear_map", "ddlab.gf2core", "fixing_linear_map", (),
     None),
    ("gf2core.span", "ddlab.gf2core", "span", (), None),
    ("gf2core.check_vectors", "ddlab.gf2core", "check_vectors", (), None),
    ("gf2core.vector_to_bits", "ddlab.gf2core", "vector_to_bits", (), None),
    ("gf2core.extend_independent", "ddlab.gf2core", "extend_independent", (),
     None),
    ("dualdd.preimage_linear_trace", "ddlab.dualdd", "preimage_linear_trace",
     (), None),
    ("dualdd.surject_linear", "ddlab.dualdd", "surject_linear", (), None),
    ("dualdd.GeneralSurjection.build", "ddlab.dualdd",
     "GeneralSurjection.build", (), None),
    ("dualdd.preimage_general_trace", "ddlab.dualdd",
     "preimage_general_trace", ("recovered", "inadmissible"),
     _general_outcome),
    ("dualdd.surject_general", "ddlab.dualdd", "surject_general", (), None),
    ("pregeometry.ClosureOperator.cl", "ddlab.pregeometry",
     "ClosureOperator.cl", ("distinct",), _closure_keys),
    ("pregeometry.check_closure_axioms", "ddlab.pregeometry",
     "check_closure_axioms", (), None),
    ("pregeometry.check_exchange", "ddlab.pregeometry", "check_exchange", (),
     None),
    ("pregeometry.check_local_homogeneity", "ddlab.pregeometry",
     "check_local_homogeneity", (), None),
    ("pregeometry.is_independent", "ddlab.pregeometry", "is_independent", (),
     None),
    ("permlab.stabilizer_orbits", "ddlab.permlab", "stabilizer_orbits", (),
     None),
    ("permlab.check_dichotomy", "ddlab.permlab", "check_dichotomy",
     ("invariant", "not_invariant"), _dichotomy),
    ("definability.minimal_support", "ddlab.definability", "minimal_support",
     (), None),
    ("definability.recursive_support", "ddlab.definability",
     "recursive_support", ("chain-cardinality", "class-majority"), _ties),
    ("definability.synthesize_formula", "ddlab.definability",
     "synthesize_formula", (), None),
    ("definability.is_support", "ddlab.definability", "is_support", (), None),
    ("formulas.evaluate", "ddlab.formulas", "evaluate", (), None),
    ("formulas.print_formula", "ddlab.formulas", "print_formula", (), None),
    ("formulas.parse_formula", "ddlab.formulas", "parse_formula", (), None),
    ("formulas.canonicalize", "ddlab.formulas", "canonicalize", (), None),
    ("cli.main", "ddlab.cli", "main", ("records", "bytes"), _cli_output),
)

# counters reported under a shorter name than their function's
_COUNTER_PREFIX = {"definability.recursive_support": "definability.ties",
                   "cli.main": "cli"}

# the backends themselves are replayed, not traced: their internal calls
# never go through module attributes in the compiled build either
_BACKENDS = ("ddlab._kernels._pure", "ddlab._kernels._gf2ext")


class _Entry:
    __slots__ = ("calls", "self_s", "depth", "extra", "seen")

    def __init__(self, counters):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.extra = dict.fromkeys(counters, 0)
        self.seen = {}


class Tracer:
    """Aggregated spans for the functions in SPANS.  The harness code
    running between them is the root span, so the self times of the
    layers plus the root's add up to the traced wall time."""

    def __init__(self, seed):
        self.entries = {name: _Entry(counters)
                        for name, _, _, counters, _ in SPANS}
        self._stack = [[0.0]]  # child time of each open span; root first
        self._patches = []
        self._started = None
        self.wall_s = 0.0
        self._rng = random.Random(seed)
        self.samples = {"union_of_max_subspaces": [], "span_members": []}
        self._seen_inputs = dict.fromkeys(self.samples, 0)

    def install(self):
        for name, module, attr, _, hook in SPANS:
            self._patch(self.entries[name], sys.modules[module], attr, hook)
        self._started = time.perf_counter()

    def uninstall(self):
        self.wall_s += time.perf_counter() - self._started
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, entry, module, attr, hook):
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(entry, raw.__func__, hook))
            else:
                wrapped = self._wrap(entry, raw, hook)
            self._patches.append((owner, method, raw))
            setattr(owner, method, wrapped)
            return
        original = getattr(module, attr)
        kernel = attr if attr in self.samples else None
        wrapped = self._wrap(entry, original, hook, kernel)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "ddlab" or mod_name.startswith("ddlab.")) \
                    and mod_name not in _BACKENDS:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def _sample(self, kernel, args):
        # reservoir sample of the inputs, for the replay
        seen = self._seen_inputs[kernel] = self._seen_inputs[kernel] + 1
        kept = self.samples[kernel]
        if len(kept) < SAMPLE:
            kept.append(tuple(args[0]))
        else:
            slot = self._rng.randrange(seen)
            if slot < SAMPLE:
                kept[slot] = tuple(args[0])

    def _wrap(self, entry, fn, hook, kernel=None):
        stack = self._stack
        clock = time.perf_counter
        sample = self._sample

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel is not None:
                sample(kernel, args)
            child = [0.0]
            stack.append(child)
            entry.depth += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                entry.depth -= 1
                entry.calls += 1
                entry.self_s += elapsed - child[0]
                stack[-1][0] += elapsed
                if hook is not None:
                    hook(entry, args, result, exc)

        return wrapper

    def metrics(self):
        """Per-layer metrics, named as in BENCHMARK.json."""
        out = {}
        for name, entry in self.entries.items():
            out[f"{name}.calls"] = (entry.calls, "count")
            out[f"{name}.self_s"] = (entry.self_s, "s")
            prefix = _COUNTER_PREFIX.get(name, name)
            for key, value in entry.extra.items():
                out[f"{prefix}.{key}"] = (value,
                                          "B" if key == "bytes" else "count")
        cl = self.entries["pregeometry.ClosureOperator.cl"]
        out["pregeometry.ClosureOperator.cl.hit_ratio"] = (
            (cl.calls - cl.extra["distinct"]) / cl.calls if cl.calls else 0.0,
            "ratio")
        layers = sum(e.self_s for e in self.entries.values())
        out["trace.wall_s"] = (self.wall_s, "s")
        out["trace.layers_share"] = (
            layers / self.wall_s if self.wall_s else 0.0, "ratio")
        return out


def replay_kernels(samples, repeats=3):
    """Run the sampled kernel inputs through the pure and the compiled
    backend: first check that both agree on every input, then time each.
    Returns (metrics, problems)."""
    from ddlab._kernels import _pure

    compiled = sys.modules.get("ddlab._kernels._gf2ext")
    backends = {"pure": _pure, "compiled": compiled}
    problems = []
    out = {}
    for kernel, short in (("union_of_max_subspaces", "union"),
                          ("span_members", "span")):
        inputs = samples[kernel]
        out[f"kernels.replay.{short}_inputs"] = (len(inputs), "count")
        if compiled is not None:
            for x in inputs:
                if getattr(_pure, kernel)(x) != getattr(compiled, kernel)(x):
                    problems.append(f"{kernel} backends disagree on {x}")
                    break
        for label, module in backends.items():
            per_call = 0.0
            if module is not None and inputs:
                fn = getattr(module, kernel)
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    for x in inputs:
                        fn(x)
                    times.append(time.perf_counter() - start)
                per_call = statistics.median(times) / len(inputs) * 1e6
            out[f"kernels.{label}.{short}_us_per_call"] = (per_call, "us")
    return out, problems
