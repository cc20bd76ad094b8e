"""Tests of the benchmark's references and output checks.

Each check must pass on ddlab's real output and fail when one wrong answer
is planted in it.  Run from the root of a checkout with
`python3 -m unittest discover -s ddbench/tests` (or pytest).
"""

import io
import random
import sys
import unittest
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from ddlab import cli, dualdd, gf2core, permlab, pregeometry  # noqa: E402
from ddlab.definability import Relation  # noqa: E402
from ddlab.errors import GroundExhausted  # noqa: E402
from ddlab.gf2core import LinearMap  # noqa: E402


def render(node):
    """Formula text of a tree from reference.parse_text."""
    if isinstance(node, str):
        return node
    return "(" + " ".join(render(child) for child in node) + ")"


class ReferencesAgreeWithDdlab(unittest.TestCase):
    def test_span_hull_and_linear_surjection(self):
        rng = random.Random(7)
        affine = pregeometry.affine_operator(4)
        for _ in range(200):
            s = frozenset(rng.sample(range(16), rng.randint(0, 8)))
            self.assertEqual(ref.span(s), gf2core.span(s, 4).members)
            self.assertEqual(ref.affine_hull(s), affine.cl(s))
            self.assertEqual(ref.surject_linear(s),
                             dualdd.surject_linear(s, 4))

    def test_general_surjection(self):
        rng = random.Random(8)
        for kind, dim in (("linear", 4), ("affine", 4)):
            reference = ref.GeneralReference(kind, dim)
            inst = dualdd.GeneralSurjection.build(
                workloads.Pregeometry.MAKERS[kind](dim))
            self.assertEqual(reference.anchor, inst.anchor)
            for _ in range(100):
                s = frozenset(rng.sample(range(1 << dim), rng.randint(0, 6)))
                self.assertEqual(reference.surject(s),
                                 dualdd.surject_general(inst, s))

    def test_generated_relations_are_supported_by_their_parameters(self):
        rng = random.Random(9)
        for n, k in ((5, 2), (4, 3)):
            e = frozenset(rng.sample(range(n), 2))
            tuples = ref.relation_from_types(n, k, e, rng)
            self.assertTrue(ref.is_support(tuples, n, e))


class ChecksCatchPlantedErrors(unittest.TestCase):
    def test_flipped_vector_in_one_surjection_record(self):
        out = io.StringIO()
        argv = ["surjection", "verify", "--dim", "5", "--max-t", "2"]
        self.assertEqual(cli.main(argv, stream=out), 0)
        lines = out.getvalue().splitlines()

        def failed(lines):
            return workloads.check_surjection_lines(
                lines, 5, 2, random.Random(1), 1000)[0]

        self.assertEqual(failed(lines), 0)
        bad = lines[:]
        record = bad[40]
        vector = record.split('"S": ["', 1)[1][:5]
        flipped = ("1" if vector[0] == "0" else "0") + vector[1:]
        bad[40] = record.replace(f'"S": ["{vector}', f'"S": ["{flipped}', 1)
        self.assertNotEqual(bad[40], record)
        self.assertEqual(failed(bad), 1)

    def test_wrong_witness_column(self):
        dim, fixed = 3, frozenset([1])
        subsets = [frozenset(v for v in range(8) if mask >> v & 1)
                   for mask in range(256)]
        orbits = permlab.stabilizer_orbits(fixed, dim)
        results = [permlab.check_dichotomy(b, fixed, dim, orbits=orbits)
                   for b in subsets]
        self.assertEqual(workloads.check_dichotomy_results(
            fixed, dim, subsets, results)[0], 0)
        index = next(i for i, r in enumerate(results) if not r.invariant)
        good = results[index]
        u = good.moved[0]
        low = (u & -u).bit_length() - 1  # a column that u's image uses
        cols = list(good.witness.cols)
        cols[low] ^= 0b100 if cols[low] & 0b100 else 0b110
        results[index] = permlab.DichotomyResult(
            good.classification, LinearMap(dim, tuple(cols)), good.moved)
        self.assertEqual(workloads.check_dichotomy_results(
            fixed, dim, subsets, results)[0], 1)

    def test_formula_with_one_literal_dropped(self):
        n, k = 5, 2  # the pairs (a, a) with a != 0: one equality type
        tuples = frozenset((a, a) for a in range(1, n))
        relation = Relation(n, k, tuples)
        record = workloads._definability_item(relation)
        inputs = [(n, k, tuples, frozenset([0]))]
        self.assertEqual(workloads.check_definability(inputs, [record]),
                         (0, []))
        minimal, recursive, stage, texts, round_trips = record
        tree = ref.parse_text(texts[0])
        tree[1] = tree[1][:1] + tree[1][2:]  # drop (= x1 x2)
        planted = (minimal, recursive, stage, (render(tree), texts[1]),
                   round_trips)
        self.assertEqual(workloads.check_definability(inputs, [planted])[0],
                         1)

    def test_wrong_general_preimage(self):
        inst = dualdd.GeneralSurjection.build(pregeometry.linear_operator(4))
        targets = [frozenset(c) for size in range(3)
                   for c in combinations(range(16), size)]
        row = []
        for target in targets:
            try:
                trace = dualdd.preimage_general_trace(inst, target)
            except GroundExhausted:
                row.append(None)
                continue
            row.append((trace.source,
                        dualdd.surject_general(inst, trace.source)))
        reference = ref.GeneralReference("linear", 4)

        def failed(row):
            return workloads.check_general_preimages(
                reference, targets, row, random.Random(1), len(targets))[0]

        self.assertEqual(failed(row), 0)
        index = max(i for i, r in enumerate(row) if r and targets[i])
        source, image = row[index]
        row[index] = (source - {max(source)}, image)
        self.assertEqual(failed(row), 1)


if __name__ == "__main__":
    unittest.main()
