"""Batch experiment runner: every verification sweep as a subcommand
emitting self-describing JSON lines (or a table derived from them).

Exit status: 0 clean, 1 violations found, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from . import definability, dualdd, formulas, gf2core, permlab, pregeometry
from .errors import DdlabError, MajorityTie
from .gf2core import bits_list

DEFAULT_SEED = 20260811


class ConfigError(Exception):
    pass


def _bits(v: int, dim: int) -> str:
    return gf2core.vector_to_bits(v, dim)


def _parse_vectors(text: str, dim: int) -> frozenset[int]:
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON vector list: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError("vector list must be a JSON array")
    out = set()
    for entry in entries:
        v, d = gf2core.vector_from_bits(str(entry))
        if d != dim:
            raise ConfigError(f"vector {entry!r} does not match dim {dim}")
        out.add(v)
    return frozenset(out)


def _parse_labels(text: str) -> list[int]:
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON label list: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError("label list must be a JSON array")
    return [int(x) for x in entries]


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
        try:
            blocks = json.loads(args.partition)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad partition JSON: {exc}") from exc
        return pregeometry.degenerate_operator(blocks)
    if kind == "identity":
        if args.ground is None:
            raise ConfigError("--geometry identity needs --ground")
        return pregeometry.identity_operator(args.ground)
    raise ConfigError(f"unknown geometry {kind!r}")


def _load_relation(path: str) -> definability.Relation:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return definability.Relation.from_json(json.load(handle))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load relation from {path}: {exc}") from exc


def _cmd_axioms(args):
    op = _make_operator(args)
    t_bound = args.t_bound if args.t_bound is not None else min(4, op.size)
    u_bound = args.u_bound if args.u_bound is not None else min(8, op.size)
    reports = [
        pregeometry.check_closure_axioms(op, args.bound),
        pregeometry.check_exchange(op, args.bound),
        pregeometry.check_local_homogeneity(op, t_bound, u_bound),
    ]
    records = [{"check": "axioms", "geometry": op.kind, "ground": op.size,
                **r.to_json()} for r in reports]
    return records, sum(not r.ok for r in reports)


def _linear_construction(args) -> dualdd.LinearSurjection:
    if args.dim is None:
        raise ConfigError("linear construction needs --dim")
    return dualdd.LinearSurjection(args.dim)


def _general_construction(args) -> dualdd.GeneralSurjection:
    if args.geometry not in ("linear", "affine"):
        raise ConfigError("general construction needs --geometry "
                          "linear or affine")
    if args.dim is None:
        raise ConfigError("general construction needs --dim")
    op = _make_operator(args)
    try:
        return dualdd.GeneralSurjection.build(op)
    except DdlabError as exc:
        raise ConfigError(f"cannot build instance: {exc}") from exc


CONSTRUCTIONS = {"linear": _linear_construction,
                 "general": _general_construction}


def _cmd_surjection_verify(args):
    if args.max_t < 0:
        raise ConfigError("--max-t must be at least 0")
    construction = CONSTRUCTIONS[args.construction](args)
    dim = construction.dim
    params = construction.sweep_params
    records = []
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
            records.append(record)
    return records, sum(not r["ok"] for r in records)


def _cmd_surjection_preimage(args):
    if args.target is None:
        raise ConfigError("preimage needs --target")
    construction = CONSTRUCTIONS[args.construction](args)
    dim = construction.dim
    target = _parse_vectors(args.target, dim)
    trace = construction.preimage_trace(target)
    record = {"check": "surjection-preimage", **construction.params,
              "T": bits_list(target, dim), "S": bits_list(trace.source, dim),
              **construction.report(trace), "ok": trace.image == target}
    return [record], 0 if record["ok"] else 1


def _cmd_surjection_collisions(args):
    construction = CONSTRUCTIONS[args.construction](args)
    dim = construction.dim
    records = []
    pairs = dualdd.collision_pairs(construction, args.count)
    for index, (first, second) in enumerate(pairs):
        image = construction.surject(first)
        records.append({"check": "surjection-collisions",
                        "construction": args.construction, "dim": dim,
                        "index": index,
                        "S1": bits_list(first, dim),
                        "S2": bits_list(second, dim),
                        "image": bits_list(image, dim),
                        "ok": image == construction.surject(second)})
    return records, sum(not r["ok"] for r in records)


def _cmd_support(args):
    rel = _load_relation(args.file)
    minimal = definability.minimal_support(rel)
    record = {"check": "support", "n": rel.n, "k": rel.k,
              "minimal": sorted(minimal.members),
              "minimal_size": minimal.size,
              "ambiguous": minimal.ambiguous}
    violations = 0
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
    return [record], violations


def _cmd_synth(args):
    rel = _load_relation(args.file)
    if args.support is not None:
        support = frozenset(_parse_labels(args.support))
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
    return [record], 0 if record["ok"] else 1


def _cmd_orbits(args):
    if args.dim is None:
        raise ConfigError("orbits needs --dim")
    fixed = _parse_vectors(args.fixed, args.dim) if args.fixed else frozenset()
    orbits = permlab.stabilizer_orbits(fixed, args.dim)
    record = {"check": "orbits", "dim": args.dim,
              "fixed": bits_list(fixed, args.dim),
              "span": bits_list(orbits.fixed_span, args.dim),
              "blocks": [bits_list(b, args.dim) for b in orbits.blocks],
              "witnesses": len(orbits.witnesses)}
    return [record], 0


def _cmd_dichotomy(args):
    if args.dim is None:
        raise ConfigError("dichotomy needs --dim")
    if args.set is None:
        raise ConfigError("dichotomy needs --set")
    fixed = _parse_vectors(args.fixed, args.dim) if args.fixed else frozenset()
    subset = _parse_vectors(args.set, args.dim)
    result = permlab.check_dichotomy(subset, fixed, args.dim)
    record = {"check": "dichotomy", "dim": args.dim,
              "fixed": bits_list(fixed, args.dim),
              "set": bits_list(subset, args.dim),
              "classification": result.classification}
    if result.witness is not None:
        record["witness_columns"] = [_bits(c, args.dim)
                                     for c in result.witness.cols]
        record["moved"] = [_bits(result.moved[0], args.dim),
                           _bits(result.moved[1], args.dim)]
    return [record], 0


def _cmd_equivariance(args):
    if args.construction == "linear":
        if args.dim is None:
            raise ConfigError("equivariance needs --dim")
        report = permlab.check_equivariance_linear(
            args.dim, trials=args.trials, seed=args.seed,
            exhaustive_max_size=args.exhaustive_max_size)
    else:
        inst = _general_construction(args)
        report = permlab.check_equivariance_general(
            inst, trials=args.trials, seed=args.seed)
    return [report.to_json()], report.failures


def _cmd_sigma(args):
    if args.ground is None:
        raise ConfigError("sigma needs --ground")
    fixed = _parse_labels(args.fixed) if args.fixed else []
    try:
        raw_sets = json.loads(args.sets) if args.sets else []
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON for --sets: {exc}") from exc
    families = [frozenset(int(x) for x in s) for s in raw_sets]
    classes = definability.signature_classes(args.ground, fixed, families)
    bound = len(set(fixed) & set(range(args.ground))) + (1 << len(families))
    record = {"check": "sigma", "ground": args.ground,
              "fixed": sorted(set(fixed)),
              "sets": [sorted(s) for s in families],
              "classes": [sorted(c) for c in classes],
              "class_count": len(classes), "bound": bound,
              "bound_ok": len(classes) <= bound}
    if args.target is not None:
        target = _parse_labels(args.target)
        witness = definability.nonunion_witness(classes, target)
        record["target"] = sorted(set(target))
        record["witness"] = list(witness) if witness else None
    return [record], 0 if record["bound_ok"] else 1


def _emit(records, args, stream):
    lines = []
    for record in records:
        if args.format == "json":
            lines.append(json.dumps(record, sort_keys=True))
        else:
            lines.append(" ".join(
                f"{key}={json.dumps(record[key], sort_keys=True)}"
                for key in sorted(record)))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        stream.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="finite verification sweeps with JSON-lines output")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--ground", type=int, default=None)
        p.add_argument("--geometry",
                       choices=("linear", "affine", "degenerate", "identity"),
                       default=None)
        p.add_argument("--partition", default=None,
                       help="JSON array of arrays of labels")

    p = sub.add_parser("axioms", help="run the pregeometry axiom checkers")
    common(p)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--t-bound", type=int, default=None, dest="t_bound")
    p.add_argument("--u-bound", type=int, default=None, dest="u_bound")
    p.set_defaults(handler=_cmd_axioms)

    p = sub.add_parser("surjection", help="subset-surjection sweeps")
    surj = p.add_subparsers(dest="mode", required=True)
    for mode, handler in (("verify", _cmd_surjection_verify),
                          ("preimage", _cmd_surjection_preimage),
                          ("collisions", _cmd_surjection_collisions)):
        q = surj.add_parser(mode)
        common(q)
        q.add_argument("--construction", choices=("linear", "general"),
                       default="linear")
        q.add_argument("--max-t", type=int, default=2, dest="max_t")
        q.add_argument("--target", default=None,
                       help="JSON array of bit-strings")
        q.add_argument("--count", type=int, default=1)
        q.set_defaults(handler=handler)

    p = sub.add_parser("support", help="minimal and recursive supports")
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--compare", action="store_true")
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("synth", help="formula synthesis with exactness check")
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--support", default=None, help="JSON array of labels")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("orbits", help="stabilizer orbit structure")
    common(p)
    p.add_argument("--fixed", default=None, help="JSON array of bit-strings")
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("dichotomy", help="classify a set against the orbits")
    common(p)
    p.add_argument("--fixed", default=None, help="JSON array of bit-strings")
    p.add_argument("--set", default=None, help="JSON array of bit-strings")
    p.set_defaults(handler=_cmd_dichotomy)

    p = sub.add_parser("equivariance", help="surjection equivariance runs")
    common(p)
    p.add_argument("--construction", choices=("linear", "general"),
                   default="linear")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--exhaustive-max-size", type=int, default=None,
                   dest="exhaustive_max_size")
    p.set_defaults(handler=_cmd_equivariance)

    p = sub.add_parser("sigma", help="membership-signature classes")
    common(p)
    p.add_argument("--fixed", default=None, help="JSON array of labels")
    p.add_argument("--sets", default=None, help="JSON array of label arrays")
    p.add_argument("--target", default=None, help="JSON array of labels")
    p.set_defaults(handler=_cmd_sigma)

    return parser


def main(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        records, violations = args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"ddlab: {exc}", file=sys.stderr)
        return 2
    except DdlabError as exc:
        print(f"ddlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(records, args, stream)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
