"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed without ddlab; `setup` does
the program-side set-up once; `run_round` does `items` operations and
returns their outputs.  A run repeats identical rounds.  `check` validates
the last round's outputs against `reference` and returns (failed items,
problem messages).  Every round also yields a digest: the sweeps are
deterministic, so the rounds of one run must agree on it.
"""

import hashlib
import json
import random
from itertools import combinations
from math import comb

import reference as ref
from ddlab import cli, definability, dualdd, formulas, permlab, pregeometry
from ddlab.errors import GroundExhausted, MajorityTie


def _each(fn, inputs):
    """fn applied to every input; an unexpected exception becomes that
    item's output, which the checks count as a failed item."""
    out = []
    for x in inputs:
        try:
            out.append(fn(x))
        except Exception as exc:
            out.append(exc)
    return out


class _Workload:
    key = repr  # what of an item's output goes into the round digest

    def digest(self, rows):
        return tuple(hash(tuple(map(self.key, row))) for row in rows)

    def close(self):
        pass


class SurjectionCli(_Workload):
    """`ddlab surjection verify --construction linear` through cli.main,
    written to a file; one item is one target record."""

    name = "surjection-cli"
    DIM, MAX_T = 7, 2
    SAMPLE = 300  # records re-evaluated by the brute-force surjection

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = workdir / f"surjection-{seed}.jsonl"
        self.argv = ["surjection", "verify", "--construction", "linear",
                     "--dim", str(self.DIM), "--max-t", str(self.MAX_T),
                     "--seed", str(seed), "--out", str(self.out)]
        self.items = sum(comb((1 << self.DIM) - 1, k)
                         for k in range(self.MAX_T + 1))

    def setup(self):
        pass  # the CLI does all of its work inside main()

    def run_round(self):
        return cli.main(list(self.argv))

    def digest(self, exit_code):
        h = hashlib.sha256(str(exit_code).encode())
        with open(self.out, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()

    def check(self, exit_code):
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        with open(self.out, encoding="utf-8") as handle:
            failed, more = check_surjection_lines(
                handle, self.DIM, self.MAX_T, random.Random(self.seed),
                self.SAMPLE)
        if exit_code != 0:
            failed = self.items
        return failed, problems + more

    def close(self):
        self.out.unlink(missing_ok=True)


def check_surjection_lines(lines, dim, max_t, rng, sample):
    """Check a `surjection verify` record stream: one ok, unskipped record
    per target T (nonzero vectors, |T| <= max_t), S = T u U with U a
    subspace of 2^(|T|+1) members, f_of_S = T, and on `sample` random
    records the brute-force surjection of S equal to T."""
    expected = sum(comb((1 << dim) - 1, k) for k in range(max_t + 1))
    picked = set(rng.sample(range(expected), min(sample, expected)))
    seen = set()
    failed = 0
    problems = []
    for index, line in enumerate(lines):
        record = json.loads(line)
        t = frozenset(ref.bits_to_int(x) for x in record["T"])
        good = (record.get("ok") is True and record.get("skipped") is False
                and record.get("S") is not None and t not in seen
                and len(t) == len(record["T"]) <= max_t and 0 not in t
                and all(len(x) == dim for x in record["T"]))
        seen.add(t)
        if good:
            s = frozenset(ref.bits_to_int(x) for x in record["S"])
            u = s - t
            image = frozenset(ref.bits_to_int(x) for x in record["f_of_S"])
            good = (t <= s and image == t and len(u) == 1 << (len(t) + 1)
                    and ref.is_subspace(u))
            if good and index in picked:
                good = ref.surject_linear(s) == t
        if not good:
            failed += 1
            if len(problems) < 5:
                problems.append(f"bad record {index}: T={record['T']}")
    if len(seen) != expected:
        problems.append(f"{len(seen)} distinct targets, expected {expected}")
        failed += abs(expected - len(seen))
    return failed, problems


class OrbitDichotomy(_Workload):
    """permlab.check_dichotomy over all 65,536 subsets of GF(2)^4 for three
    seeded stabilizers, one per size of span(fixed) (1, 2 and 4), so every
    seed gives the same mix of work; one item is one classification."""

    name = "orbit-dichotomy"
    DIM = 4

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        size = 1 << self.DIM
        one = [frozenset(), frozenset([0])]
        two = ([frozenset([v]) for v in range(1, size)]
               + [frozenset([0, v]) for v in range(1, size)])
        four = [frozenset(c) for c in combinations(range(1, size), 2)]
        self.fixed = [rng.choice(one), rng.choice(two), rng.choice(four)]
        self.subsets = [frozenset(v for v in range(size) if mask >> v & 1)
                        for mask in range(1 << size)]
        self.items = len(self.fixed) * len(self.subsets)

    def setup(self):
        self.orbits = [permlab.stabilizer_orbits(f, self.DIM)
                       for f in self.fixed]

    def run_round(self):
        rows = []
        for fixed, orbits in zip(self.fixed, self.orbits):
            rows.append(_each(
                lambda b: permlab.check_dichotomy(b, fixed, self.DIM,
                                                  orbits=orbits),
                self.subsets))
        return rows

    @staticmethod
    def key(result):
        if isinstance(result, permlab.DichotomyResult):
            return result.classification, result.moved
        return repr(result)

    def check(self, rows):
        failed = 0
        problems = []
        for fixed, row in zip(self.fixed, rows):
            f, more = check_dichotomy_results(fixed, self.DIM, self.subsets,
                                              row)
            failed += f
            problems += more
        return failed, problems


def check_dichotomy_results(fixed, dim, subsets, results):
    """A set is invariant exactly when it misses all or none of the
    complement of span(fixed); there are 2^(|span|+1) invariant sets; each
    moved pair (u, v) has u in b, v not in b and witness(u) = v; each
    distinct witness is invertible and fixes span(fixed) pointwise."""
    fixed_span = ref.span(fixed)
    complement = frozenset(range(1 << dim)) - fixed_span
    valid = {}
    failed = invariant = 0
    problems = []
    for b, result in zip(subsets, results):
        inter = b & complement
        expect = not inter or inter == complement
        good = getattr(result, "invariant", None) == expect
        if good and expect:
            invariant += 1
            good = result.classification == (
                "subset-of-span" if not inter else "complement-subset-of-span")
        elif good:
            u, v = result.moved
            cols = result.witness.cols
            if cols not in valid:
                valid[cols] = (ref.is_invertible(cols) and all(
                    ref.mat_vec(cols, w) == w for w in fixed_span))
            good = (valid[cols] and u in b and v not in b
                    and ref.mat_vec(cols, u) == v)
        if not good:
            failed += 1
            if len(problems) < 5:
                problems.append(f"fixed={sorted(fixed)} set={sorted(b)}: "
                                f"{result!r}")
    if len(results) != len(subsets):
        failed += abs(len(subsets) - len(results))
        problems.append(f"{len(results)} results for {len(subsets)} sets")
    elif invariant != 1 << (len(fixed_span) + 1):
        problems.append(f"fixed={sorted(fixed)}: {invariant} invariant sets, "
                        f"expected {1 << (len(fixed_span) + 1)}")
        failed = max(failed, 1)
    return failed, problems


class Definability(_Workload):
    """Minimal support, recursive support (or a majority tie), synthesis
    and a text round trip per relation.  Part 1 is a seeded sample of the
    65,536 binary relations on 4 points (criterion 6's sweep); part 2 is
    seeded unions of equality types over a parameter set E, |E| = 0, 1, 2
    in turn, at n=8 arity 2 and n=6 arity 3."""

    name = "definability"
    PART1 = 2048
    PART2 = ((8, 2, 60), (6, 3, 60))

    def __init__(self, seed, workdir):
        # a fixed draw of relations, each with its points renamed by its own
        # seeded permutation: renaming changes the inputs but hardly the
        # work, while drawing other relations changed a round's work by up
        # to 14% from one seed to another
        fixed = random.Random(0)
        points = [(a, b) for a in range(4) for b in range(4)]
        drawn = [  # (n, k, tuples, generating E or None for part 1)
            (4, 2, frozenset(p for i, p in enumerate(points) if mask >> i & 1),
             None)
            for mask in fixed.sample(range(1 << 16), self.PART1)]
        for n, k, count in self.PART2:
            for i in range(count):
                e = frozenset(fixed.sample(range(n), i % 3))
                drawn.append(
                    (n, k, ref.relation_from_types(n, k, e, fixed), e))
        rng = random.Random(seed)
        self.inputs = []
        for n, k, tuples, e in drawn:
            name = rng.sample(range(n), n)
            self.inputs.append((
                n, k, frozenset(tuple(name[x] for x in t) for t in tuples),
                None if e is None else frozenset(name[x] for x in e)))
        self.items = len(self.inputs)

    def setup(self):
        self.relations = [definability.Relation(n, k, tuples)
                          for n, k, tuples, _ in self.inputs]

    def run_round(self):
        return [_each(_definability_item, self.relations)]

    def check(self, rows):
        return check_definability(self.inputs, rows[0])


def _definability_item(rel):
    minimal = definability.minimal_support(rel)
    try:
        recursive = definability.recursive_support(rel)
    except MajorityTie as tie:
        return (minimal.members, None, tie.stage, (), True)
    texts = []
    round_trips = True
    for members in (recursive, minimal.members):
        formula = definability.synthesize_formula(rel, members)
        text = formulas.print_formula(formula)
        back = formulas.parse_formula(text, arity=formula.arity,
                                      params=formula.params)
        round_trips &= back == formulas.canonicalize(formula)
        texts.append(text)
    return (minimal.members, recursive, None, tuple(texts), round_trips)


def check_definability(inputs, records):
    """Every item completes or ties at a documented stage; the minimal
    support passes the transposition test and no smaller set does; the
    recursive support passes it; every formula text, evaluated here,
    holds exactly on the relation; in part 2 the minimal support is no
    larger than the generating E."""
    failed = 0
    problems = []
    for (n, k, tuples, e), record in zip(inputs, records):
        good = isinstance(record, tuple)
        if good:
            minimal, recursive, stage, texts, round_trips = record
            good = (round_trips
                    and ref.is_support(tuples, n, minimal)
                    and (not minimal or not any(
                        ref.is_support(tuples, n, frozenset(c))
                        for c in combinations(range(n), len(minimal) - 1)))
                    and (e is None or len(minimal) <= len(e)))
            if recursive is None:
                good = good and stage in ("chain-cardinality",
                                          "class-majority")
            else:
                good = (good and ref.is_support(tuples, n, recursive)
                        and len(texts) == 2
                        and all(ref.formula_matches(t, tuples, n, k)
                                for t in texts))
        if not good:
            failed += 1
            if len(problems) < 5:
                problems.append(f"n={n} k={k} |R|={len(tuples)}: "
                                f"{record!r:.200}")
    if len(records) != len(inputs):
        failed += abs(len(inputs) - len(records))
        problems.append(f"{len(records)} records for {len(inputs)} relations")
    return failed, problems


class Pregeometry(_Workload):
    """Part 1: criterion 3's checkers (closure and exchange at bound 3,
    local homogeneity at (4, 8)) on fresh linear and affine operators at
    d=3 and d=4, so each round fills the closure caches anew.  Part 2:
    general-construction preimages, each re-evaluated, for every target of
    at most 2 points on linear d=4 and affine d=5.  One item is one
    checker verdict or one target."""

    name = "pregeometry"
    GEOMETRIES = (("linear", 3), ("linear", 4), ("affine", 3), ("affine", 4))
    GENERAL = (("linear", 4), ("affine", 5))
    MAX_T = 2
    SAMPLE = 40  # recovered preimages re-evaluated per instance
    MAKERS = {"linear": pregeometry.linear_operator,
              "affine": pregeometry.affine_operator}

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.targets = []
        for _, dim in self.GENERAL:
            ground = range(1 << dim)
            targets = [frozenset(c) for size in range(self.MAX_T + 1)
                       for c in combinations(ground, size)]
            self.rng.shuffle(targets)
            self.targets.append(targets)
        self.items = (3 * len(self.GEOMETRIES)
                      + sum(len(t) for t in self.targets))

    def setup(self):
        self.instances = [
            dualdd.GeneralSurjection.build(self.MAKERS[kind](dim))
            for kind, dim in self.GENERAL]

    def run_round(self):
        rows = [self._axioms(kind, dim) for kind, dim in self.GEOMETRIES]
        for inst, targets in zip(self.instances, self.targets):
            rows.append(_each(lambda t: _general_preimage(inst, t), targets))
        return rows

    def _axioms(self, kind, dim):
        op = self.MAKERS[kind](dim)
        return _each(lambda checker: checker().status, (
            lambda: pregeometry.check_closure_axioms(op, 3),
            lambda: pregeometry.check_exchange(op, 3),
            lambda: pregeometry.check_local_homogeneity(op, 4, 8)))

    def check(self, rows):
        axioms = len(self.GEOMETRIES)
        verdicts = [v for row in rows[:axioms] for v in row]
        failed = 0
        problems = []
        for index, verdict in enumerate(verdicts):
            want = ("PASS", "PASS", "BOUNDED-PASS")[index % 3]
            if verdict != want:
                failed += 1
                kind, dim = self.GEOMETRIES[index // 3]
                problems.append(f"{kind} d={dim} checker {index % 3}: "
                                f"{verdict!r}, expected {want}")
        for (kind, dim), targets, row in zip(self.GENERAL, self.targets,
                                             rows[axioms:]):
            f, more = check_general_preimages(
                ref.GeneralReference(kind, dim), targets, row,
                self.rng, self.SAMPLE)
            failed += f
            problems += [f"{kind} d={dim}: {p}" for p in more]
        return failed, problems


def _general_preimage(inst, target):
    """(source, its image) for a recovered target; None when the target is
    inadmissible (GroundExhausted, a documented verdict)."""
    try:
        trace = dualdd.preimage_general_trace(inst, target)
    except GroundExhausted:
        return None
    return trace.source, dualdd.surject_general(inst, trace.source)


def check_general_preimages(reference, targets, row, rng, sample):
    """A target is recovered exactly when the reference finds room for the
    construction; each recovered source re-evaluates to its target under
    the program, and on `sample` random ones under the reference."""
    recovered = [i for i, r in enumerate(row) if isinstance(r, tuple)]
    picked = set(rng.sample(recovered, min(sample, len(recovered))))
    failed = 0
    problems = []
    for index, (target, result) in enumerate(zip(targets, row)):
        if isinstance(result, tuple):
            source, image = result
            good = (reference.admissible(target) and image == target
                    and (index not in picked
                         or reference.surject(source) == target))
        else:
            good = result is None and not reference.admissible(target)
        if not good:
            failed += 1
            if len(problems) < 5:
                problems.append(f"target {sorted(target)}: {result!r:.200}")
    failed += abs(len(targets) - len(row))
    return failed, problems


WORKLOADS = {w.name: w for w in (SurjectionCli, OrbitDichotomy, Definability,
                                 Pregeometry)}
