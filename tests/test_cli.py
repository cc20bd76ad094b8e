"""CLI subcommands: record shapes, exit codes, determinism."""

import hashlib
import io
import json
import subprocess
import sys
import types

import pytest

from ddlab import dualdd
from ddlab.cli import main


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, stream=buf)
    return code, buf.getvalue()


def records(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


def test_axioms_affine():
    code, out = run_cli(["axioms", "--geometry", "affine", "--dim", "3",
                         "--bound", "2"])
    assert code == 0
    by_axiom = {r["axiom"]: r["status"] for r in records(out)}
    assert by_axiom == {"closure": "PASS", "exchange": "PASS",
                        "local-homogeneity": "BOUNDED-PASS"}


def test_axioms_degenerate_via_partition():
    code, out = run_cli(["axioms", "--geometry", "degenerate",
                         "--partition", "[[0,1],[2,3]]", "--bound", "2"])
    assert code == 0


def test_axioms_failure_exit_code():
    # unequal blocks break local homogeneity
    code, out = run_cli(["axioms", "--geometry", "degenerate",
                         "--partition", "[[0,1],[2]]", "--bound", "2"])
    assert code == 1
    statuses = {r["axiom"]: r["status"] for r in records(out)}
    assert statuses["local-homogeneity"] == "FAIL"


def test_surjection_verify_linear():
    code, out = run_cli(["surjection", "verify", "--construction", "linear",
                         "--dim", "5", "--max-t", "1"])
    assert code == 0
    recs = records(out)
    assert len(recs) == 32
    assert all(r["ok"] for r in recs)
    assert all(r["f_of_S"] == r["T"] for r in recs if not r["skipped"])


def test_surjection_verify_general():
    code, out = run_cli(["surjection", "verify", "--construction", "general",
                         "--geometry", "linear", "--dim", "3",
                         "--max-t", "1"])
    assert code == 0
    assert all(r["ok"] for r in records(out))


def test_surjection_preimage_record():
    code, out = run_cli(["surjection", "preimage", "--construction",
                         "linear", "--dim", "3", "--target", '["100"]'])
    assert code == 0
    rec = records(out)[0]
    assert rec["T"] == ["100"]
    assert rec["cardinality_identity"] and rec["ok"]
    assert rec["f_of_S"] == ["100"]


def test_surjection_collisions():
    code, out = run_cli(["surjection", "collisions", "--construction",
                         "linear", "--dim", "2", "--count", "3"])
    assert code == 0
    recs = records(out)
    assert len(recs) == 3 and all(r["ok"] for r in recs)
    assert recs[0]["S1"] == ["00"] and recs[0]["S2"] == ["00", "10"]


@pytest.mark.parametrize("argv,pairs", [
    ("--construction linear --dim 3", 56),  # 8 sets: {0} and 7 lines
    # 15 sets: 7 lines, 7 planes and the whole space, less 0
    ("--construction general --geometry linear --dim 3", 210),
    ("--construction general --geometry affine --dim 3", 210),
])
def test_collisions_stop_at_the_end_of_the_pool(argv, pairs, capsys):
    base = ["surjection", "collisions", *argv.split(), "--count"]
    code, out = run_cli([*base, str(pairs)])
    assert code == 0 and len(records(out)) == pairs
    assert capsys.readouterr().err == ""
    assert run_cli([*base, str(pairs + 1)]) == (2, "")
    assert capsys.readouterr().err == (
        f"ddlab: BudgetExceeded: only {pairs} collision pairs available, "
        f"{pairs + 1} requested\n")


def test_support_and_synth(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"n": 7, "k": 1, "tuples": [[3]]}))
    code, out = run_cli(["support", "--file", str(path), "--compare"])
    assert code == 0
    rec = records(out)[0]
    assert rec["minimal"] == [3] and rec["recursive"] == [3]
    assert rec["size_gap"] == 0
    assert rec["formula_minimal"] == "(or (and (= x1 c3)))"

    code, out = run_cli(["synth", "--file", str(path)])
    rec = records(out)[0]
    assert code == 0 and rec["exact"] and rec["support"] == [3]

    code, out = run_cli(["synth", "--file", str(path), "--support", "[0]"])
    assert code == 1
    assert records(out)[0]["ok"] is False


def test_support_majority_tie_reported(tmp_path):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(
        {"n": 4, "k": 2, "tuples": [[0, 1], [1, 0]]}))
    code, out = run_cli(["support", "--file", str(path), "--compare"])
    assert code == 0
    rec = records(out)[0]
    assert rec["majority_tie"] and rec["tie_stage"] == "chain-cardinality"
    assert rec["minimal"] == [0, 1]


def test_orbits_and_dichotomy():
    code, out = run_cli(["orbits", "--dim", "2", "--fixed", '["10"]'])
    assert code == 0
    rec = records(out)[0]
    assert rec["blocks"] == [["00"], ["10"], ["01", "11"]]

    code, out = run_cli(["dichotomy", "--dim", "2", "--set", '["10"]'])
    rec = records(out)[0]
    assert rec["classification"] == "not-invariant"
    assert rec["moved"] == ["10", "01"]


def test_equivariance_and_sigma():
    code, out = run_cli(["equivariance", "--construction", "linear",
                         "--dim", "3", "--trials", "50"])
    assert code == 0
    assert records(out)[0]["failures"] == 0

    code, out = run_cli(["sigma", "--ground", "4", "--fixed", "[0]",
                         "--sets", "[[1,2]]", "--target", "[1]"])
    assert code == 0
    rec = records(out)[0]
    assert rec["classes"] == [[0], [1, 2], [3]]
    assert rec["witness"] == [1, 2]


def test_byte_identical_output_for_same_seed(tmp_path):
    argv = ["equivariance", "--construction", "general", "--geometry",
            "affine", "--dim", "3", "--trials", "40", "--seed", "123"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second

    out_path = tmp_path / "report.jsonl"
    code, _ = run_cli(argv + ["--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == first


# sha256 of the stdout of each surjection configuration, and its exit code;
# the records are exact verdicts, so the bytes must not change with the
# kernel backend or with how the sweeps are written
GOLDEN = (
    ("verify --construction linear --dim 5 --max-t 2", 0,
     "de5361a401be2b4b7cada649840ef05a2b24adc5d12a6d43ebf80ad85ee718ae"),
    # t=3 at d=3 is skipped: DimensionExhausted
    ("verify --construction linear --dim 3 --max-t 3", 0,
     "53ed12d1610dc5e255b4b856835bd625acf52548f810e4c2f718822ca78c37c3"),
    ("verify --construction linear --dim 3 --max-t 2 --format table", 0,
     "e3cce8c4d3ef683ae6b787027e6de497aa300022c689eed24511bfe6c8b05e85"),
    # 105 of the 137 targets are inadmissible: GroundExhausted
    ("verify --construction general --geometry linear --dim 4 --max-t 2", 0,
     "28e266a5b6f0d7f27454ddc63720ffdf9a19bf9a7fd7365aecded777ff42d3df"),
    ("verify --construction general --geometry affine --dim 4 --max-t 2", 0,
     "60cb812f0bc06221cfd3a94d9e459398685a43f6c824b6e2d97b6b5a8b4cfc4c"),
    ("verify --construction general --geometry affine --dim 3 --max-t 3 "
     "--format table", 0,
     "e84a9a6f0f55bbfd80bb6e5cc19b77f74c4a8cd8dcc3605cd46300d54031050d"),
    # the largest general sweeps, recorded while the general construction
    # still picked its points through the operator's closure
    ("verify --construction general --geometry affine --dim 7 --max-t 2", 0,
     "b0c0c23a222346f13419332d4c22013ee51ad0a9ee65b3b210414add21ddeb21"),
    ("verify --construction general --geometry linear --dim 7 --max-t 2", 0,
     "2abefca815d1ffd81be063d8443ba4ccd2ad4860d3c771bf7482af0afa7b439e"),
    ('preimage --construction linear --dim 3 --target ["100"]', 0,
     "b026dd3f9415c779a04f458c17bc9d7c77bf85dc5f5f5eb8214acec8e1928a0f"),
    ('preimage --construction linear --dim 2 --target ["00","11"]', 0,
     "817e0c695872a168b3e075214a4dbef11ab8baf62a4eba7ff9757109b09288d8"),
    ('preimage --construction linear --dim 5 --target ["10000","01000"] '
     "--format table", 0,
     "4bfe837e8ae71a72d46717878e71d97d20df493fcd810a0aaef1eff91f4e8fbe"),
    ("preimage --construction general --geometry linear --dim 3 "
     '--target ["100","010","001"]', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('preimage --construction general --geometry affine --dim 3 '
     '--target ["010"]', 0,
     "fabff3ee5dfd2de69f9a111038385a9d7a80603fd47d6e208fc7ad3f61bb91fa"),
    ("preimage --construction general --geometry linear --dim 4 "
     '--target ["0000","1000"]', 0,
     "3c2f72875baa0672a413af7f1d439d04b914ac5bfbd52c24f3a09c4c3597cac5"),
    ("preimage --construction general --geometry linear --dim 4 "
     '--target ["1000"] --format table', 0,
     "0c8fc76cb26cd764c42357c49c27c374c68361fe2132ad9255dffd2f00756a0a"),
    ("collisions --construction linear --dim 3 --count 10", 0,
     "4993f876dbbd15815a9eae6a850bfa65386a55f413710f8d2cb80847e6ff0900"),
    ("collisions --construction linear --dim 1 --count 2 --format table", 0,
     "f59f2109c6df4be8487e2bba152a8a1dcf5cb520335479d33219b648b88c95ca"),
    ("collisions --construction general --geometry linear --dim 3 "
     "--count 6", 0,
     "c2dca7f993fb93569705a31c2c07955e59042fdd955de6a61021ce5a9dc6f259"),
    ("collisions --construction general --geometry affine --dim 3 "
     "--count 4 --format table", 0,
     "404355b01b6da6f83da976a4ead5e34e280fa62cf287d14063cf692fa0a2197c"),
    # the pools read past the planes into rank 3, so the order within each
    # rank counts; the
    # records carry no geometry, so both geometries print the same bytes
    ("collisions --construction general --geometry linear --dim 7 "
     "--count 3000", 0,
     "73586df5f7603910e47e2c8ac7ce00a9d2304538e69d494bbf88d69eea0da913"),
    ("collisions --construction general --geometry affine --dim 7 "
     "--count 3000", 0,
     "73586df5f7603910e47e2c8ac7ce00a9d2304538e69d494bbf88d69eea0da913"),
)


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_surjection_golden_output(argv, code, digest):
    got_code, out = run_cli(["surjection", *argv.split()])
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the same for orbits and dichotomy, recorded before the dichotomy moved to
# bitmasks
ORBIT_GOLDEN = (
    ("orbits --dim 1", 0,
     "41477a643acf3a8cc8ea2958fcda82016f823796652f468c318682010619cd55"),
    ('orbits --dim 2 --fixed ["10"]', 0,
     "551ec0c94aafa3d4be50edd4c5e767e9b0bf1de4d2d630b6b5e34e737117ddb3"),
    ("orbits --dim 3 --format table", 0,
     "c9b8ef5505fdb38c9d9f8ef89f78bb8b9a2a2f58312b19a97471f76680c5c51d"),
    ('orbits --dim 5 --fixed ["10000","01100"]', 0,
     "e56416f73923971be1099da45cf27ad5b0a20e934861f66187d8821020fd78b3"),
    ('orbits --dim 5 --fixed ["00001","00010","00100","01000","10000"] '
     "--format table", 0,
     "0a77f467cde7f956211ba6ea7d8254b1f4dc23a37e480cadab078c45ad611483"),
    # subset-of-span: the empty set, then a set inside a 2-dimensional span
    ("dichotomy --dim 3 --set []", 0,
     "863ff5f0c229ae3b3f31f098324c7faae0a9fa3ef31431e8791b5903d8d1142b"),
    ('dichotomy --dim 3 --fixed ["100","010"] --set ["000","110","010"]', 0,
     "370e443418030986fe7560b4eebcf8da9017282a2a9d19ff7e247936ba3c289a"),
    # complement-subset-of-span, with and without a span member
    ('dichotomy --dim 3 --fixed ["100"] '
     '--set ["000","010","110","001","101","011","111"]', 0,
     "a82bf7b70d48781b92f958a879f9533b27501a9608ecbd1b87743204e383314f"),
    ('dichotomy --dim 3 --set ["100","010","110","001","101","011","111"] '
     "--format table", 0,
     "912665ecc7ea6dff5476178050e401eef69b4e4e3a702dd22e3fa6ccb3c9f945"),
    # not-invariant: the record carries witness_columns and moved
    ('dichotomy --dim 2 --set ["10"]', 0,
     "a9969029e048309cfe5904e0941483d3527ded1b5e3509b2f72a97ea3e85aa8a"),
    ('dichotomy --dim 3 --fixed ["001"] --set ["010","111","001"] '
     "--format table", 0,
     "bcc2b9923c86d860062adc8e0655b15db7ba24745a0dac0dcfb51464b75f807a"),
    ('dichotomy --dim 5 --fixed ["10000","01100"] '
     '--set ["00000","01100","00011","10101"]', 0,
     "42adac1582ad20b91602a225b8a5b77e3a6c7f4269e21c80da5d93bca64798f3"),
    ('dichotomy --dim 5 --fixed ["10000","01100"] --set ["00000","11100"]', 0,
     "652e1682b6acc3c048fa00a942dfaa5dc872028cffbdcdc14d96a68e3269f15b"),
    ('dichotomy --dim 5 --fixed ["00101"] '
     '--set ["00101","11111","01010","10011","01110"] --format table', 0,
     "e4689aa7d4f6f43074af7a7126a8c393afd078eaf27eeb95927d1944d39ea0ce"),
    # a vector of the wrong length is a configuration error
    ('dichotomy --dim 3 --set ["1000"]', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)


@pytest.mark.parametrize("argv,code,digest", ORBIT_GOLDEN,
                         ids=[row[0] for row in ORBIT_GOLDEN])
def test_orbit_golden_output(argv, code, digest):
    got_code, out = run_cli(argv.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the same for support and synth, each row with the text of its --file;
# recorded before minimal supports came from transposition classes
BLOCKS_3_3 = json.dumps({"n": 6, "k": 2, "tuples": [
    [a, b] for lo in (0, 3) for a in range(lo, lo + 3)
    for b in range(lo, lo + 3)]})
PATH_5 = '{"n": 5, "k": 2, "tuples": [[0,1],[1,2],[2,3]]}'
POINT_7 = '{"n": 7, "k": 1, "tuples": [[3]]}'
DEFINABILITY_GOLDEN = (
    ("support", POINT_7, 0,
     "ecf4955d206b7600cb647778e311e14d356f7197daff463a8e997218aaa6bc32"),
    # two classes of 3 tie for largest: ambiguous
    ("support --format table", BLOCKS_3_3, 0,
     "f93e06d93276123fe3f47e9671b7beddbe5587bea8abab250ffd03f6ccf1be6b"),
    ("support", PATH_5, 0,
     "881b6e05cde2c5ba91a308926a0130a5ffc3ffde86ec60129073bb57b1347827"),
    ("support", '{"n": 4, "k": 3, "tuples": [[0,1,2],[1,0,2],[3,3,3]]}', 0,
     "2cb438e333d580dbf35c5915f6dbb1d53a30e639d86c0495690df33618939ca7"),
    # the recursive construction completes
    ("support --compare", '{"n": 6, "k": 2, "tuples": [[0,1],[1,0]]}', 0,
     "0dba3ce6dc774a1310f34f0a8bd06ffe73d64f3daf61353f70ffd3d14e8ce91c"),
    ("support --compare", json.dumps({"n": 7, "k": 2, "tuples": [
        [0, b] for b in range(1, 7)] + [[a, a] for a in range(1, 7)]}), 0,
     "35461eae18864c118264129475e0e6f97325b1e1da346d379ed0ac989d0862e4"),
    ("support --compare --format table",
     '{"n": 7, "k": 1, "tuples": [[0],[1],[2],[3],[4],[5]]}', 0,
     "af973ec36769d6760490e4dd259645b03963979c93abb3d13b37f8d78e492d65"),
    # majority ties at the chain-cardinality and class-majority stages
    ("support --compare", '{"n": 4, "k": 2, "tuples": [[0,1],[1,0]]}', 0,
     "5020c4870db9d11039daaa47858e66f026bca8941be69fbb17e69dfbf4d3a95f"),
    ("support --compare", '{"n": 6, "k": 2, "tuples": '
     '[[0,1],[2,3],[4,5],[1,0],[3,2],[5,4]]}', 0,
     "5b0d640bb881bcd142d2a365c221bf13699406e9da9fa1526ef96ce2b9d5c6fc"),
    ("synth", PATH_5, 0,
     "f96ccb3308ad34293c06b9c39d28ede180a81caca0b9e2767f70528f0629a04c"),
    ("synth --format table",
     '{"n": 5, "k": 2, "tuples": [[0,0],[1,1],[2,2],[3,3],[4,4]]}', 0,
     "b5f3ae7650631fd26dcd9ca3e33006f1f756496b61171f9f3e8b641e6fcb8aab"),
    ("synth --support [0,1,2,3]", PATH_5, 0,
     "f96ccb3308ad34293c06b9c39d28ede180a81caca0b9e2767f70528f0629a04c"),
    ("synth --support [3]", POINT_7, 0,
     "b877055dd78eec4e1da1be5855919ac1c9257f60a00c2a4637056686330bcc88"),
    # not a support: a record with ok false
    ("synth --support [0]", POINT_7, 1,
     "e263aad7ea5e7cc439ecb669c9c040a73ef7eeebce14f5257b1d4ca12b70c064"),
    ("synth --support []", PATH_5, 1,
     "410ddbf70436e775d101a84c3ac9692469e17accf142c0689f0e2b78fa4d92ff"),
    # malformed relation files and a label outside the ground set
    ("support", '{"n": 3, "k": 1, "tuples": [[5]]}', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("synth", '{"n": 3, "k": 2, "tuples": [[0]]}', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("support", '{"n": 3, "k": 1}', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("synth", '{"n": 3, "k": 1, "tuples": [[0]', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("synth --support [9]", POINT_7, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)


@pytest.mark.parametrize("argv,text,code,digest", DEFINABILITY_GOLDEN,
                         ids=[row[0] for row in DEFINABILITY_GOLDEN])
def test_definability_golden_output(tmp_path, capsys, argv, text, code,
                                    digest):
    path = tmp_path / "rel.json"
    path.write_text(text)
    command, *rest = argv.split()
    got_code, out = run_cli([command, "--file", str(path), *rest])
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code == 2:
        assert capsys.readouterr().err.startswith("ddlab: ")


# the same for equivariance, recorded before the linear and general
# checkers became one
EQUIVARIANCE_GOLDEN = (
    ("--dim 2 --trials 50", 0,
     "f36e0190955a2c1ca570c6b3bf5a38e6eb0b3a74246b5398b1d65d6ffca4f7c5"),
    ("--dim 3 --trials 200 --seed 42", 0,
     "40faee9177718035b5cf2d72d69d97b64b475e9eeb3cb331b3ce825c55cdcdb3"),
    ("--dim 6 --trials 100 --seed 5", 0,
     "0521988bcfb96da57d50397363ffb882fa21327a794b417c689a3bbcd67aa9ed"),
    ("--dim 4 --trials 25 --seed 3 --format table", 0,
     "bc0132af97ce8838d3d89b957977cdfdea9f0858b639d17f4ab23ba44e0cb4f8"),
    # exhaustive: every invertible map against every set up to the size
    ("--dim 2 --exhaustive-max-size 3", 0,
     "48f42db83f8b2451a709eb75044fa9ce6837cc2d254827da030d66c29dc7d5fd"),
    ("--dim 3 --exhaustive-max-size 1 --format table", 0,
     "6d28d672a943092b84cd42c1edb6c7f309210fe76c71ea0c60fe36036809c907"),
    ("--construction general --geometry linear --dim 3 --trials 100", 0,
     "54d6e54393fc46feac171649a12cb1b3a94a24a2b1e11c1ad45d53158f483a82"),
    ("--construction general --geometry affine --dim 3 --trials 100 "
     "--seed 7", 0,
     "89e7181a9f44399f4024204a2499bdb9cc51eb1a80a4c6b531d4c70f731fa3ba"),
    ("--construction general --geometry affine --dim 4 --trials 30 "
     "--format table", 0,
     "f66d94f6e38618377fec631ab01d77369fa2b86fe78d7992f3c8ec599559aad6"),
    ("--dim 11", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)


@pytest.mark.parametrize("argv,code,digest", EQUIVARIANCE_GOLDEN,
                         ids=[row[0] for row in EQUIVARIANCE_GOLDEN])
def test_equivariance_golden_output(argv, code, digest):
    got_code, out = run_cli(["equivariance", *argv.split()])
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the same for the axiom checkers, recorded before local homogeneity became
# one pruned search over closed sets
AXIOMS_GOLDEN = (
    ("--geometry linear --dim 3", 0,
     "9c4ca0fe6a2af8d9d5450c752f4a81cd7948ae4bcb4bb8801f2d403fc06b88db"),
    ("--geometry linear --dim 4", 0,
     "e0d8b150c618a48eb028d99e9d1dfff490a37cdf1a6f2621fed2d593ed5bdfa9"),
    ("--geometry affine --dim 3", 0,
     "24f80e4a892b4e1b47b5dc0686e1bf079067d9d638811c08b7b0710f133de29c"),
    ("--geometry affine --dim 4", 0,
     "796ec069dae0964a052858f9b0750ef1649a426f0fd28b940d6cf2ad69f71a2d"),
    ("--geometry affine --dim 4 --t-bound 2", 0,
     "893cfa94c07febb0b99f2489b3ff05d640378003e5734669e080eebcb7c94a65"),
    # unequal blocks: local homogeneity fails
    ("--geometry degenerate --partition [[0,1],[2]] --t-bound 3 "
     "--u-bound 3", 1,
     "9f49c4f7eada70701a9d5f79ca84616386f2432602fcc1fbc9648df19224ffff"),
    ("--geometry degenerate --partition [[0,1,2],[3,4],[5]]", 1,
     "65a122af19ecc324bd5f5f21d91954ebdbf0aaa20643c2011ae1d27f07ed0236"),
    ("--geometry identity --ground 6 --t-bound 3", 0,
     "07392dd49214fa6c3a9c6d42e3049638965f2d7e7cf201d3f0cec73da938b2d4"),
)


@pytest.mark.parametrize("argv,code,digest", AXIOMS_GOLDEN,
                         ids=[row[0] for row in AXIOMS_GOLDEN])
def test_axioms_golden_output(argv, code, digest):
    got_code, out = run_cli(["axioms", *argv.split()])
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["--dim", "3", "--trials", "40"],
    ["--dim", "2", "--exhaustive-max-size", "2"],
    ["--construction", "general", "--geometry", "linear", "--dim", "3",
     "--trials", "40"],
], ids=" ".join)
def test_equivariance_failures_exit_1(monkeypatch, argv):
    # adjoining the fixed point 1 commutes only with maps fixing 1
    for cls in (dualdd.LinearSurjection, dualdd.GeneralSurjection):
        monkeypatch.setattr(cls, "surject",
                            lambda self, subset: frozenset(subset) | {1})
    code, out = run_cli(["equivariance", *argv])
    assert code == 1
    rec = records(out)[0]
    assert rec["failures"] > 0
    assert 0 < len(rec["witnesses"]) == min(rec["failures"], 20)
    points = 1 << int(argv[argv.index("--dim") + 1])
    for entry in rec["witnesses"]:
        assert set(entry) == {"trial", "set", "map"}
        assert 0 <= entry["trial"] < rec["trials"]
        assert sorted(entry["map"]) == list(range(points))
        assert entry["set"] == sorted(set(entry["set"]))


def test_table_format():
    code, out = run_cli(["orbits", "--dim", "2", "--format", "table"])
    assert code == 0
    assert "blocks=" in out and "{" not in out.splitlines()[0][:1]


def test_config_errors_exit_2():
    assert run_cli(["axioms", "--geometry", "linear"])[0] == 2
    assert run_cli(["support", "--file", "/no/such/file.json"])[0] == 2
    assert run_cli(["sigma"])[0] == 2
    assert run_cli(["no-such-command"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["surjection", "verify", "--dim", "0"],
    ["surjection", "verify", "--dim", "30"],
    ["surjection", "verify", "--dim", "3", "--max-t", "-1"],
    ["dichotomy", "--dim", "3", "--set", '["abc"]'],
    ["sigma", "--ground", "3", "--sets", '[[1,"x"]]'],
    ["axioms", "--geometry", "linear", "--dim", "3", "--bound", "99"],
    ["equivariance", "--dim", "11"],
    ["equivariance", "--construction", "general", "--geometry", "linear",
     "--dim", "11"],
    ["equivariance", "--dim", "3", "--trials", "-5"],
    ["equivariance", "--construction", "general", "--geometry", "affine",
     "--dim", "3", "--trials", "-2"],
    ["equivariance", "--dim", "2", "--exhaustive-max-size", "-1"],
    # exhaustive mode lists all of GL(d, 2), so d <= 4 for both
    # constructions
    ["equivariance", "--dim", "5", "--exhaustive-max-size", "1"],
    ["equivariance", "--construction", "general", "--geometry", "linear",
     "--dim", "5", "--exhaustive-max-size", "1"],
    ["orbits", "--dim", "21"],
    ["dichotomy", "--dim", "21", "--set", "[]"],
    ["surjection", "collisions", "--dim", "2", "--count", "0"],
    ["orbits", "--dim", "1", "--out", "/nonexistent/x.jsonl"],
    # a general construction at d=8 is capped before any closure work
    ["surjection", "verify", "--construction", "general", "--geometry",
     "linear", "--dim", "8"],
    ["equivariance", "--construction", "general", "--geometry", "linear",
     "--dim", "8", "--trials", "1"],
    # options a subcommand does not read
    ["surjection", "preimage", "--dim", "2", "--target", "[]",
     "--count", "2"],
    ["surjection", "verify", "--dim", "2", "--target", "[]"],
    ["orbits", "--dim", "2", "--geometry", "linear"],
    ["sigma", "--ground", "3", "--dim", "2"],
    ["surjection", "verify", "--construction", "linear", "--dim", "2",
     "--geometry", "affine", "--max-t", "0"],
    ["equivariance", "--dim", "2", "--geometry", "linear"],
    # the three axiom reports are all computed before the first record
    ["axioms", "--geometry", "linear", "--dim", "2", "--t-bound", "5"],
    # negative bounds and ground sizes
    ["axioms", "--geometry", "linear", "--dim", "2", "--bound", "-1"],
    ["axioms", "--geometry", "linear", "--dim", "2", "--t-bound", "-1"],
    ["axioms", "--geometry", "linear", "--dim", "2", "--u-bound", "-3",
     "--t-bound", "-5"],
    ["sigma", "--ground", "-3"],
    # operator grounds are capped before they are built
    ["axioms", "--geometry", "linear", "--dim", "30"],
    ["axioms", "--geometry", "identity", "--ground", "100000000"],
    # closed-set searches stop at their count budget
    ["axioms", "--geometry", "identity", "--ground", "128", "--bound", "0"],
    ["axioms", "--geometry", "linear", "--dim", "-1"],
    # labels, tuple entries, n and k must be JSON integers
    ["sigma", "--ground", "3", "--fixed", "[[1]]"],
    ["sigma", "--ground", "3", "--target", "[[0]]"],
    ["sigma", "--ground", "3", "--sets", "[1]"],
    ["sigma", "--ground", "3", "--sets", "5"],
    ["sigma", "--ground", "3", "--fixed", "[1.5]"],
    ["sigma", "--ground", "3", "--fixed", "[true]"],
    ["axioms", "--geometry", "degenerate", "--partition", "[1]"],
    ["support", "--file", '{"n": 3, "k": 1, "tuples": [1]}'],
    ["synth", "--file", '{"n": "3", "k": 1, "tuples": []}'],
    ["support", "--file", '{"n": 3.5, "k": 1, "tuples": []}'],
    ["synth", "--file", "[1, 2]"],
    ["support", "--file", '{"n": 3, "k": 1, "tuples": [[true]]}'],
    # relations and signature grounds are capped before any work
    ["support", "--compare", "--file", '{"n": 100, "k": 5, "tuples": []}'],
    ["synth", "--file", '{"n": 100, "k": 5, "tuples": []}'],
    ["sigma", "--ground", "100000000"],
], ids=" ".join)
def test_bad_values_exit_2_without_traceback(argv, tmp_path):
    if "--file" in argv:  # the text after --file is the file's content
        at = argv.index("--file") + 1
        path = tmp_path / "rel.json"
        path.write_text(argv[at])
        argv = [*argv[:at], str(path), *argv[at + 1:]]
    proc = subprocess.run([sys.executable, "-m", "ddlab.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("ddlab: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_unread_options_exit_2(tmp_path, capsys):
    path = tmp_path / "rel.json"
    path.write_text(POINT_7)
    for argv in (["support", "--file", str(path), "--dim", "3"],
                 ["synth", "--file", str(path), "--geometry", "linear"]):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err.startswith("ddlab: ")


def test_records_are_written_as_they_are_produced(monkeypatch):
    calls = []
    real = dualdd.LinearSurjection.preimage_trace

    def counted(self, target):
        calls.append(target)
        return real(self, target)

    monkeypatch.setattr(dualdd.LinearSurjection, "preimage_trace", counted)
    # each write notes how many preimages had been built by then
    writes = []
    stream = types.SimpleNamespace(write=lambda text: writes.append(
        len(calls)))
    assert main(["surjection", "verify", "--dim", "4", "--max-t", "1"],
                stream=stream) == 0
    assert writes == list(range(1, 17))


def test_bad_value_leaves_out_file_alone(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"earlier run\n")
    code, out = run_cli(["surjection", "verify", "--dim", "3", "--max-t",
                         "-1", "--out", str(path)])
    assert (code, out) == (2, "")
    assert path.read_bytes() == b"earlier run\n"


def peak_rss_kb(argv):
    """The exit code and peak RSS in KiB (as on Linux) of one CLI run.
    It runs as the child of a small interpreter, because a child's
    ru_maxrss starts from the RSS of the process that forked it, and this
    one's is larger than a run's."""
    launcher = ("import resource, subprocess, sys; "
                "code = subprocess.call([sys.executable, '-m', 'ddlab.cli',"
                " *sys.argv[1:]]); print(code, resource.getrusage("
                "resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", launcher, *argv],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    code, peak_kb = map(int, proc.stdout.split())
    return code, peak_kb


def test_sweep_memory_does_not_grow_with_output(tmp_path):
    # 8,129 records at t <= 2 against 128 at t <= 1: streamed, both sweeps
    # peak at about the same RSS
    peaks = []
    for max_t in ("2", "1"):
        code, peak_kb = peak_rss_kb(
            ["surjection", "verify", "--dim", "7", "--max-t", max_t,
             "--out", str(tmp_path / f"t{max_t}.jsonl")])
        assert code == 0
        peaks.append(peak_kb)
    assert abs(peaks[0] - peaks[1]) < 5 * 1024, peaks


@pytest.mark.parametrize("argv", [
    # reads 2 of the 2^20 + 1 sets of the linear pool
    "--construction linear --dim 20 --count 1",
    # reads the lines, the planes and 207 of the rank-3 subspaces of
    # GF(2)^7, less 0
    "--construction general --geometry linear --dim 7 --count 3000",
])
def test_collisions_read_only_the_pool_they_need(argv, tmp_path):
    # building every set a pool could hold peaks at about 300 and 340 MB
    code, peak_kb = peak_rss_kb(["surjection", "collisions", *argv.split(),
                                 "--out", str(tmp_path / "pairs.jsonl")])
    assert code == 0
    assert peak_kb < 100 * 1024, peak_kb


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ddlab.cli", "orbits", "--dim", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["blocks"] == [["0"], ["1"]]
