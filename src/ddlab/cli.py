"""Batch experiment runner: every verification sweep as a subcommand
emitting self-describing JSON lines (or a table derived from them).

Each handler yields (record, ok) pairs, ok False for a violation, and
`main` writes every record as one line the moment it exists.

Exit status: 0 clean, 1 violations found, 2 bad configuration or error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import combinations

from . import definability, dualdd, formulas, gf2core, permlab, pregeometry
from .errors import DdlabError, MajorityTie
from .gf2core import bits_list

DEFAULT_SEED = 20260811


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other bad configuration:
    `ddlab: <message>`, then the usage, and exit status 2."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _checked(value, what: str, depth: int, leaf=None):
    """`value` as JSON arrays nested `depth` deep, each entry inside them
    passed through `leaf(entry, what)`, or else a JSON integer (true and
    1.5 are not)."""
    if depth:
        if not isinstance(value, list):
            raise ConfigError(f"{what}: {json.dumps(value)} is not an array")
        return [_checked(entry, what, depth - 1, leaf) for entry in value]
    if leaf:
        return leaf(value, what)
    if type(value) is not int:
        raise ConfigError(f"{what}: {json.dumps(value)} is not an integer")
    return value


def _parse_json(text: str, what: str, depth: int, leaf=None):
    """Decode `text` and check its shape with `_checked`."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON for {what}: {exc}") from exc
    return _checked(value, what, depth, leaf)


def _parse_vectors(text: str, dim: int, what: str) -> frozenset[int]:
    def vector(entry, what):
        v, d = gf2core.vector_from_bits(str(entry))
        if d != dim:
            raise ConfigError(f"{what}: vector {entry!r} does not match "
                              f"dim {dim}")
        return v

    return frozenset(_parse_json(text, what, 1, vector))


def _make_operator(args) -> pregeometry.ClosureOperator:
    kind = args.geometry
    if kind in ("linear", "affine"):
        if args.dim is None:
            raise ConfigError(f"--geometry {kind} needs --dim")
        maker = (pregeometry.linear_operator if kind == "linear"
                 else pregeometry.affine_operator)
        return maker(args.dim)
    if kind == "degenerate":
        if args.partition is None:
            raise ConfigError("--geometry degenerate needs --partition")
        return pregeometry.degenerate_operator(
            _parse_json(args.partition, "--partition", 2))
    if args.ground is None:
        raise ConfigError("--geometry identity needs --ground")
    return pregeometry.identity_operator(args.ground)


def _load_relation(path: str) -> definability.Relation:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _parse_json(handle.read(), path, 0, _relation)
    except OSError as exc:
        raise ConfigError(f"cannot load relation from {path}: {exc}") from exc


def _relation(obj, what: str) -> definability.Relation:
    if not isinstance(obj, dict) or not {"n", "k", "tuples"} <= obj.keys():
        raise ConfigError(f"{what} must hold an object with n, k and tuples")
    return definability.Relation.from_tuples(
        _checked(obj["n"], "n", 0), _checked(obj["k"], "k", 0),
        _checked(obj["tuples"], "tuples", 2))


def _cmd_axioms(args):
    op = _make_operator(args)
    t_bound = args.t_bound if args.t_bound is not None else min(4, op.size)
    u_bound = args.u_bound if args.u_bound is not None else min(8, op.size)
    # all three run before the first record, so a bad bound writes nothing;
    # --bound is checked first, then local homogeneity runs, the one check
    # that stops at a budget
    pregeometry.check_max_subset(op, args.bound)
    homogeneity = pregeometry.check_local_homogeneity(op, t_bound, u_bound)
    for r in (pregeometry.check_closure_axioms(op, args.bound),
              pregeometry.check_exchange(op, args.bound), homogeneity):
        yield ({"check": "axioms", "geometry": op.kind, "ground": op.size,
                **r.to_json()}, r.ok)


def _general_construction(args) -> dualdd.GeneralSurjection:
    if args.geometry is None:
        raise ConfigError("general construction needs --geometry "
                          "linear or affine")
    op = _make_operator(args)
    try:
        return dualdd.GeneralSurjection.build(op)
    except DdlabError as exc:
        raise ConfigError(f"cannot build instance: {exc}") from exc


def _linear_construction(args) -> dualdd.LinearSurjection:
    if args.geometry is not None:
        raise ConfigError("--geometry is read only by --construction "
                          "general")
    return dualdd.LinearSurjection(args.dim)


CONSTRUCTIONS = {"linear": _linear_construction,
                 "general": _general_construction}


def _cmd_surjection_verify(args):
    if args.max_t < 0:
        raise ConfigError("--max-t must be at least 0")
    construction = CONSTRUCTIONS[args.construction](args)
    dim = construction.dim
    params = construction.sweep_params
    for size in range(args.max_t + 1):
        for combo in combinations(construction.points, size):
            target = frozenset(combo)
            record = {"check": "surjection-verify", **params,
                      "T": bits_list(target, dim)}
            try:
                trace = construction.preimage_trace(target)
                record.update(S=bits_list(trace.source, dim),
                              f_of_S=bits_list(trace.image, dim),
                              ok=trace.image == target, skipped=False)
            except construction.skip as exc:
                record.update(S=None, f_of_S=None, ok=True,
                              skipped=True, reason=str(exc))
            except DdlabError as exc:
                record.update(S=None, f_of_S=None, ok=False,
                              skipped=False, error=str(exc))
            yield record, record["ok"]


def _cmd_surjection_preimage(args):
    construction = CONSTRUCTIONS[args.construction](args)
    dim = construction.dim
    target = _parse_vectors(args.target, dim, "--target")
    trace = construction.preimage_trace(target)
    record = {"check": "surjection-preimage", **construction.params,
              "T": bits_list(target, dim), "S": bits_list(trace.source, dim),
              **construction.report(trace), "ok": trace.image == target}
    yield record, record["ok"]


def _cmd_surjection_collisions(args):
    construction = CONSTRUCTIONS[args.construction](args)
    dim = construction.dim
    image, pairs = dualdd.collision_pairs(construction, args.count)
    for index, (first, second) in enumerate(pairs):
        yield ({"check": "surjection-collisions",
                "construction": args.construction, "dim": dim,
                "index": index, "S1": bits_list(first, dim),
                "S2": bits_list(second, dim),
                "image": bits_list(image, dim), "ok": True}, True)


def _cmd_support(args):
    rel = _load_relation(args.file)
    minimal = definability.minimal_support(rel)
    record = {"check": "support", "n": rel.n, "k": rel.k,
              "minimal": sorted(minimal.members),
              "minimal_size": minimal.size,
              "ambiguous": minimal.ambiguous}
    if args.compare:
        try:
            recursive = definability.recursive_support(rel)
            record.update(recursive=sorted(recursive),
                          recursive_size=len(recursive),
                          majority_tie=False,
                          size_gap=len(recursive) - minimal.size)
            record["formula_recursive"] = formulas.print_formula(
                definability.synthesize_formula(rel, recursive))
        except MajorityTie as exc:
            record.update(recursive=None, recursive_size=None,
                          majority_tie=True, tie_stage=exc.stage)
        record["formula_minimal"] = formulas.print_formula(
            definability.synthesize_formula(rel, minimal.members))
    yield record, True


def _cmd_synth(args):
    rel = _load_relation(args.file)
    if args.support is not None:
        support = frozenset(_parse_json(args.support, "--support", 1))
    else:
        support = definability.minimal_support(rel).members
    record = {"check": "synth", "n": rel.n, "k": rel.k,
              "support": sorted(support)}
    try:
        formula = definability.synthesize_formula(rel, support)
        record.update(formula=formulas.print_formula(formula), exact=True,
                      ok=True)
    except DdlabError as exc:
        record.update(formula=None, exact=False, ok=False, error=str(exc))
    yield record, record["ok"]


def _cmd_orbits(args):
    fixed = _parse_vectors(args.fixed or "[]", args.dim, "--fixed")
    orbits = permlab.stabilizer_orbits(fixed, args.dim)
    complement = [v for v in range(1 << args.dim)
                  if v not in orbits.fixed_span]
    blocks = [[w] for w in orbits.fixed_span]
    if complement:
        blocks.append(complement)
    record = {"check": "orbits", "dim": args.dim,
              "fixed": bits_list(fixed, args.dim),
              "span": bits_list(orbits.fixed_span, args.dim),
              "blocks": [bits_list(b, args.dim)
                         for b in sorted(blocks, key=min)],
              # one moving map per consecutive pair of the complement
              "witnesses": max(len(complement) - 1, 0)}
    yield record, True


def _cmd_dichotomy(args):
    fixed = _parse_vectors(args.fixed or "[]", args.dim, "--fixed")
    subset = _parse_vectors(args.set, args.dim, "--set")
    result = permlab.check_dichotomy(subset, fixed, args.dim)
    record = {"check": "dichotomy", "dim": args.dim,
              "fixed": bits_list(fixed, args.dim),
              "set": bits_list(subset, args.dim),
              "classification": result.classification}
    if result.witness is not None:
        record["witness_columns"] = [gf2core.vector_to_bits(c, args.dim)
                                     for c in result.witness.cols]
        record["moved"] = [gf2core.vector_to_bits(v, args.dim)
                           for v in result.moved]
    yield record, True


def _cmd_equivariance(args):
    permlab.validate_equivariance(args.dim, args.trials,
                                  args.exhaustive_max_size)
    construction = CONSTRUCTIONS[args.construction](args)
    report = permlab.check_equivariance(
        construction, trials=args.trials, seed=args.seed,
        exhaustive_max_size=args.exhaustive_max_size)
    yield report.to_json(), report.ok


def _cmd_sigma(args):
    definability.check_signature_ground(args.ground)

    def label(entry, what):
        if type(entry) is not int or not 0 <= entry < args.ground:
            raise ConfigError(f"{what}: {json.dumps(entry)} is not a label "
                              f"in range({args.ground})")
        return entry

    fixed = _parse_json(args.fixed or "[]", "--fixed", 1, label)
    sets = _parse_json(args.sets or "[]", "--sets", 2, label)
    target = (_parse_json(args.target, "--target", 1, label)
              if args.target is not None else None)
    families = [frozenset(s) for s in sets]
    classes = definability.signature_classes(args.ground, fixed, families)
    bound = len(set(fixed)) + (1 << len(families))
    record = {"check": "sigma", "ground": args.ground,
              "fixed": sorted(set(fixed)),
              "sets": [sorted(s) for s in families],
              "classes": [sorted(c) for c in classes],
              "class_count": len(classes), "bound": bound,
              "bound_ok": len(classes) <= bound}
    if target is not None:
        witness = definability.nonunion_witness(classes, target)
        record["target"] = sorted(set(target))
        record["witness"] = list(witness) if witness else None
    yield record, record["bound_ok"]


def _line(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, sort_keys=True)
    return " ".join(f"{key}={json.dumps(record[key], sort_keys=True)}"
                    for key in sorted(record))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ddlab",
        description="finite verification sweeps with JSON-lines output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, handler, help=None):
        p = group.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.set_defaults(handler=handler)
        return p

    def construction(p):
        p.add_argument("--construction", choices=CONSTRUCTIONS,
                       default="linear")
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--geometry", choices=("linear", "affine"),
                       help="the general construction's geometry")
        return p

    p = command(sub, "axioms", _cmd_axioms,
                "run the pregeometry axiom checkers")
    p.add_argument("--geometry", required=True,
                   choices=("linear", "affine", "degenerate", "identity"))
    p.add_argument("--dim", type=int)
    p.add_argument("--ground", type=int)
    p.add_argument("--partition", help="JSON array of arrays of labels")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--t-bound", type=int)
    p.add_argument("--u-bound", type=int)

    surj = sub.add_parser("surjection", help="subset-surjection sweeps")
    surj = surj.add_subparsers(dest="mode", required=True)
    p = construction(command(surj, "verify", _cmd_surjection_verify))
    p.add_argument("--max-t", type=int, default=2)
    p = construction(command(surj, "preimage", _cmd_surjection_preimage))
    p.add_argument("--target", required=True, help="JSON array of bit-strings")
    p = construction(command(surj, "collisions", _cmd_surjection_collisions))
    p.add_argument("--count", type=int, default=1)

    p = command(sub, "support", _cmd_support,
                "minimal and recursive supports")
    p.add_argument("--file", required=True)
    p.add_argument("--compare", action="store_true")

    p = command(sub, "synth", _cmd_synth,
                "formula synthesis with exactness check")
    p.add_argument("--file", required=True)
    p.add_argument("--support", help="JSON array of labels")

    p = command(sub, "orbits", _cmd_orbits, "stabilizer orbit structure")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fixed", help="JSON array of bit-strings")

    p = command(sub, "dichotomy", _cmd_dichotomy,
                "classify a set against the orbits")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fixed", help="JSON array of bit-strings")
    p.add_argument("--set", required=True, help="JSON array of bit-strings")

    p = construction(command(sub, "equivariance", _cmd_equivariance,
                             "surjection equivariance runs"))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--exhaustive-max-size", type=int)

    p = command(sub, "sigma", _cmd_sigma, "membership-signature classes")
    p.add_argument("--ground", type=int, required=True)
    p.add_argument("--fixed", help="JSON array of labels")
    p.add_argument("--sets", help="JSON array of label arrays")
    p.add_argument("--target", help="JSON array of labels")

    return parser


def main(argv=None, stream=None) -> int:
    """Run one subcommand, writing each record as it is produced.

    Every configuration check runs before the first record, and --out is
    opened only at the first record, so a bad configuration writes nothing
    and leaves an existing file alone.  An error raised after some records
    were written keeps those lines and still exits 2.
    """
    violations = 0
    try:
        args = build_parser().parse_args(argv)
        with contextlib.ExitStack() as stack:
            out = None
            for record, ok in args.handler(args):
                if out is None:
                    out = (stack.enter_context(
                        open(args.out, "w", encoding="utf-8"))
                        if args.out else stream or sys.stdout)
                out.write(_line(record, args.format) + "\n")
                violations += not ok
    except SystemExit as exc:  # --help
        return exc.code
    except (ConfigError, OSError, ValueError) as exc:
        print(f"ddlab: {exc}", file=sys.stderr)
        return 2
    except DdlabError as exc:
        print(f"ddlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("ddlab: out of memory", file=sys.stderr)
        return 2
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
