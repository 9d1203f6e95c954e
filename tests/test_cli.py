import argparse
import contextlib
import io
import json
import os
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muram import covering
from muram.cli import build_parser, main
from muram.fppoly import Poly
from muram.pgroup import PGroup
from muram.randgen import random_integral_twist, random_normal_cyclic_kummer
from muram.serialize import covering_to_obj


def write_covering(tmp_path, obj, name="cov.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def kummer_obj(p, exponents, factors, **extra):
    obj = {"group": {"p": p, "exponents": exponents}, "kind": "kummer", "f": factors}
    obj.update(extra)
    return obj


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_ramify_mu3(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(3, [1], [[0, 1]]))
    code, rep = run(capsys, ["ramify", "--input", path])
    assert code == 0
    assert rep["degree"] == 2
    assert rep["divisor"]["places"] == [
        {"mult": 2, "place": {"kind": "finite", "poly": {"coeffs": [0, 1], "p": 3}}}
    ]
    assert rep["schema_version"] == 1


def test_validate_ok_and_exit_codes(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(2, [2], [[0, 1]]))
    code, rep = run(capsys, ["validate", "--input", path])
    assert code == 0 and rep["ok"]


def test_validate_reports_bad_normalization(tmp_path, capsys):
    # alpha(0,1) = x must fail validation, not be silently normalized
    obj = {
        "group": {"p": 2, "exponents": [1]},
        "kind": "cocycle",
        "entries": [[[0], [0], [1]], [[0], [1], [0, 1]], [[1], [1], [0, 1]]],
    }
    path = write_covering(tmp_path, obj)
    code, rep = run(capsys, ["validate", "--input", path])
    assert code == 2 and not rep["ok"]
    assert any(f["invariant"] == "normalization" for f in rep["failures"])


def test_usage_error_is_exit_1(capsys):
    assert main(["ramify"]) == 1  # missing --input
    assert main(["no-such-command"]) == 1


def test_missing_file_is_exit_1(capsys):
    assert main(["ramify", "--input", "/nonexistent/file.json"]) == 1


def test_readme_usage_block_matches_the_parser():
    # every "    muram <cmd> ..." line of the README names a subcommand and
    # only flags that its parser knows, and every subcommand has a line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = re.findall(r"^    muram (\S+)(.*)$", readme, re.M)
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert {command for command, _ in usage} == set(subparsers.choices)
    for command, rest in usage:
        flags = set(re.findall(r"(?:^|[\s\[])(--?[a-z][\w-]*)", rest))
        unknown = flags - set(subparsers.choices[command]._option_string_actions)
        assert not unknown, f"README: muram {command} has no option {sorted(unknown)}"


# the Z/2 x Z/2 table with every entry 1 except alpha((1,1),(1,1)) = x: it
# fails the cocycle identity, and its unit indices do not form a subgroup
INVALID_PRODUCT_TABLE = {
    "group": {"p": 2, "exponents": [1, 1]},
    "kind": "cocycle",
    "entries": [[m, n, [0, 1] if m == n == [1, 1] else [1]]
                for i, m in enumerate([[0, 1], [1, 0], [1, 1]])
                for n in [[0, 1], [1, 0], [1, 1]][i:]],
}


def test_model_rejection_is_exit_2(tmp_path, capsys):
    # f a p-th power: rejected with exit 2
    path = write_covering(tmp_path, kummer_obj(2, [1], [[0, 0, 1]]))
    code = main(["ramify", "--input", path])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["rejected"] == "NonIntegralModel"
    # a raw product table whose unit indices are not a subgroup is invalid input
    path = write_covering(tmp_path, INVALID_PRODUCT_TABLE, name="invalid.json")
    code, rep = run(capsys, ["validate", "--input", path])
    assert code == 2 and [f["invariant"] for f in rep["failures"]] == ["cocycle identity"]
    for command in (["ramify"], ["gorenstein"]):
        code, rep = run(capsys, command + ["--input", path])
        assert code == 2 and rep["rejected"] == "NotASubgroup"


def test_oracle_subcommand(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(3, [1], [[0, 1]]))
    code, rep = run(capsys, ["oracle", "--input", path, "--place", "0,1"])
    assert code == 0
    assert rep == {
        "agree": True,
        "command": "oracle",
        "formula": 2,
        "oracle": 2,
        "place": {"kind": "finite", "poly": {"coeffs": [0, 1], "p": 3}},
        "schema_version": 1,
    }
    code, rep = run(capsys, ["oracle", "--input", path, "--place", "infinity"])
    assert code == 0 and rep["agree"]


def test_oracle_refuses_what_ramify_refuses(tmp_path, capsys):
    # z^2 = x^5 + x^2 over F_2 is singular at (x); (x + 1) alone is fine
    path = write_covering(tmp_path, kummer_obj(2, [1], [[0, 0, 1, 0, 0, 1]]))
    assert main(["ramify", "--input", path]) == 2
    refused = capsys.readouterr()
    assert json.loads(refused.out)["rejected"] == "NonNormalModel"
    assert main(["oracle", "--input", path, "--place", "1,1"]) == 2
    assert capsys.readouterr() == refused


def test_devissage_subcommand(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(2, [2], [[0, 1]]))
    code, rep = run(capsys, ["devissage", "--input", path, "-m", "1", "--with-oracle"])
    assert code == 0
    assert rep["equal"] and rep["oracle_agrees"]


def test_devissage_reads_a_raw_cyclic_table_in_kummer_form(tmp_path, capsys):
    kd = random_normal_cyclic_kummer(random.Random(5), 3, 2)
    g = kd.group
    argv = ["devissage", "-m", "1", "--include-infinity", "--with-oracle", "--input"]
    expected = run(capsys, argv + [write_covering(tmp_path, covering_to_obj(kd))])
    assert expected[0] == 0 and expected[1]["total"]["degree"] > 0
    twisted = covering.twist(kd.to_cocycle(), random_integral_twist(random.Random(5), g))
    for raw in (kd.to_cocycle(), twisted):
        path = write_covering(tmp_path, covering_to_obj(raw), "raw.json")
        assert run(capsys, argv + [path]) == expected


def test_devissage_refuses_a_raw_product_table_as_oracle_does(tmp_path, capsys):
    kd = covering.KummerData(PGroup(2, (1, 1)), (Poly(2, [0, 1]), Poly(2, [1, 1])))
    path = write_covering(tmp_path, covering_to_obj(kd.to_cocycle()))
    refusals = []
    for argv in (["devissage", "-m", "1"], ["oracle", "--place", "0,1"]):
        assert main(argv + ["--input", path]) == 2
        refusals.append(json.loads(capsys.readouterr().out))
    assert refusals[0] == refusals[1]
    assert refusals[0] == {"schema_version": 1, "rejected": "UnsupportedGroup",
                           "detail": "local models are cyclic-only; split product data per factor"}


def test_devissage_oracle_at_a_split_place(tmp_path, capsys):
    # z^4 = x (x + 1)^4: (x + 1) is split, so the upper layer's stand-in has c = 0
    path = write_covering(tmp_path, kummer_obj(2, [2], [[0, 1, 0, 0, 0, 1]]))
    code, rep = run(capsys, ["devissage", "--input", path, "-m", "1", "--with-oracle"])
    assert code == 0
    assert rep["equal"] and rep["oracle_agrees"]
    assert [row["index"] for row in rep["pullback_indices"]] == [2, 2]
    assert rep["total"]["degree"] == 3


def test_genus_subcommand(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(2, [2], [[0, 1]]))
    code, rep = run(capsys, ["genus", "--input", path])
    assert code == 0
    assert rep["g_Y"] == 0 and rep["deg_R"] == 6


def test_genus_hypothesis_failure_exit_2(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(2, [1], [[0, 1, 0, 0, 1]]))
    assert main(["genus", "--input", path]) == 2
    # the all-ones Z/2 table is z^2 = 1, whose chart equation is a p-th power
    ones = {
        "group": {"p": 2, "exponents": [1]},
        "kind": "cocycle",
        "entries": [[[0], [0], [1]], [[0], [1], [1]], [[1], [1], [1]]],
    }
    path = write_covering(tmp_path, ones, name="ones.json")
    capsys.readouterr()
    code, rep = run(capsys, ["genus", "--input", path])
    assert code == 2 and rep["rejected"] == "HypothesisFailure"


@pytest.mark.parametrize(
    "obj,group,order,q_max",
    [
        # in characteristic 3, (x + 1)^{1/3} = x^{1/3} + 1: one chart equation
        # is the other's, and the Z/3 x Z/3 covering is not normal
        (kummer_obj(3, [1, 1], [[1, 2, 1], [0, 0, 1]]), "Z/3 x Z/3", 9, 3),
        (kummer_obj(2, [1, 1], [[0, 1, 1], [1, 1, 1]]), "Z/2 x Z/2", 4, 2),
    ],
    ids=["3x3", "2x2"],
)
def test_genus_refuted_normality_is_exit_2(tmp_path, capsys, obj, group, order, q_max):
    path = write_covering(tmp_path, obj)
    code, rep = run(capsys, ["genus", "--input", path])
    assert code == 2
    p = obj["group"]["p"]
    assert rep == {
        "detail": f"normality: the generic fibre of a {group} grading has dimension "
                  f"|G| = {order} over K = F_{p}(x), but K^(1/{q_max}) has degree {q_max}: "
                  "it is not a field, so the covering is not normal",
        "rejected": "HypothesisFailure",
        "schema_version": 1,
    }
    assert main(["genus", "--input", path, "--assume-normal"]) == 1


def test_genus_non_gorenstein_is_exit_2(tmp_path, capsys):
    # the pinned non-Gorenstein Z/4 twist of f = x + 1 (see test_gorenstein.py)
    zeta2, zeta4 = [1, 0, 1], [1, 0, 0, 0, 1]
    twist = [{"elt": [1], "num": zeta2, "den": [1]}, {"elt": [2], "num": zeta4, "den": [1]},
             {"elt": [3], "num": zeta2, "den": [1]}]
    obj = kummer_obj(2, [2], [[1, 1]], twist=twist, infinity_degrees=[0, 3, 5, 3])
    code, rep = run(capsys, ["genus", "--input", write_covering(tmp_path, obj)])
    assert code == 2
    assert rep["rejected"] == "HypothesisFailure"
    assert rep["detail"] == "gorenstein: no unit anti-diagonal at (x + 1)"


def test_ramify_raw_product_table_at_infinity(tmp_path, capsys):
    from muram.covering import KummerData

    x, x1 = Poly(2, [0, 1]), Poly(2, [1, 1])
    obj = covering_to_obj(KummerData(PGroup(2, (1, 1)), (x, x1)).to_cocycle())
    obj["infinity_degrees"] = [0, 1, 1, 2]
    code, rep = run(capsys, ["ramify", "--input", write_covering(tmp_path, obj),
                             "--include-infinity"])
    assert code == 0 and rep["degree"] == 5
    assert [(r["place"]["kind"], r["multiplicity"], r["normality"]) for r in rep["reports"]] == [
        ("finite", 1, "refuted"), ("finite", 1, "refuted"), ("infinity", 3, "refuted")
    ]


def test_regress_gln_subcommand(capsys):
    code, rep = run(capsys, ["regress-gln", "-p", "2", "-n", "2", "--beta", "1", "--gamma", "2"])
    assert code == 0
    assert rep["summary"] == "15 != 3 + 6"
    assert not rep["degenerate_height_one"]
    code, rep = run(capsys, ["regress-gln", "-p", "2", "-n", "1", "--beta", "1", "--gamma", "2"])
    assert rep["summary"] == "3 == 1 + 2"
    assert rep["equal"] and rep["degenerate_height_one"]


@pytest.mark.parametrize("p, n", [("2", "-1"), ("2", "0"), ("4", "2"), ("1", "2"),
                                  ("0", "2"), ("-3", "2")])
def test_regress_gln_refuses_bad_characteristic_or_height(capsys, p, n):
    code = main(["regress-gln", "-p", p, "-n", n, "--beta", "1", "--gamma", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "p, n, gamma, message",
    [("2305843009213693951", "1", "2", "p=2305843009213693951 exceeds the order bound 65536"),
     ("3", "1", "30000000", "p^(n*gamma) = 3^30000000 exceeds the order bound 65536"),
     ("2", "4", "5", "p^(n*gamma) = 2^20 exceeds the order bound 65536")],
    ids=["huge-p", "huge-gamma", "order-just-above"],
)
def test_regress_gln_refuses_sizes_above_the_order_bound_at_once(capsys, p, n, gamma, message):
    # p is refused before trial division, p^(n gamma) before it is formed
    start = time.perf_counter()
    code = main(["regress-gln", "-p", p, "-n", n, "--beta", "1", "--gamma", gamma])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gorenstein_subcommand(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(2, [2], [[0, 1]]))
    code, rep = run(capsys, ["gorenstein", "--input", path, "--include-infinity"])
    assert code == 0
    assert rep["non_gorenstein_places"] == []
    assert rep["sign"] == 1
    assert {(row["p"], row["n"]): row["sign"] for row in rep["sign_table"]}[(3, 1)] == -1


def test_gorenstein_above_the_sign_cap(tmp_path, capsys):
    # z^32 = x: the verdicts need no sign, which is derived up to order 16
    path = write_covering(tmp_path, kummer_obj(2, [5], [[0, 1]]))
    code, rep = run(capsys, ["gorenstein", "--input", path, "--include-infinity"])
    assert code == 0
    assert [(row["place"]["kind"], row["gorenstein"]) for row in rep["places"]] == [
        ("finite", True), ("infinity", True)
    ]
    assert rep["non_gorenstein_places"] == []
    assert "sign" not in rep and len(rep["sign_table"]) == 10


def test_gorenstein_search(capsys):
    code, rep = run(capsys, ["gorenstein", "--search", "--count", "5", "--seed", "1"])
    assert code == 0
    assert "counterexamples" in rep and rep["checked_places"] >= 0


def test_fuzz_subcommand(capsys):
    code, rep = run(capsys, ["fuzz", "--seed", "2", "--count", "2", "--pn", "2,2"])
    assert code == 0
    assert rep["failures"] == []
    assert rep["checked"]["models"] == 2


FUZZ_SHAPES = ["--pn", "2,1", "--pn", "3,1", "--pn", "2,3", "--pn", "3,2", "--pn", "2,4"]


@pytest.mark.parametrize("seed", ["1", "5"])
def test_fuzz_prints_the_same_bytes(capsys, seed):
    # the integral columns are formed without their table; the draws are unchanged
    assert main(["fuzz", "--seed", seed, "--count", "2", *FUZZ_SHAPES]) == 0
    assert capsys.readouterr().out == (
        '{"checked": {"columns": 10, "determinants": 8, "devissage": 6, "models": 10, '
        '"oracle_places": 20}, "command": "fuzz", "failures": [], "schema_version": 1, '
        f'"seed": {seed}}}\n'
    )


def _refuse_every_table(monkeypatch):
    monkeypatch.setattr(covering, "_reconstruct", lambda c: "refused by the test")


def _oracle_one_too_many_at_order_p(monkeypatch):
    from muram import snf_oracle

    real = snf_oracle.oracle_multiplicity
    monkeypatch.setattr(snf_oracle, "oracle_multiplicity", lambda model: real(model) + (model.n == 1))


@pytest.mark.parametrize("breakage", [_refuse_every_table, _oracle_one_too_many_at_order_p],
                         ids=["reconstruct-refuses", "oracle-off-by-one"])
def test_fuzz_fails_on_a_broken_check(capsys, monkeypatch, breakage):
    # at p^n = 4 the column check reads a raw table back, and the devissage
    # check runs the oracle on the order-2 layers
    breakage(monkeypatch)
    assert main(["fuzz", "--seed", "1", "--count", "1", "--pn", "2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal invariant violation: ")


def test_internal_invariant_is_exit_3(tmp_path, capsys, monkeypatch):
    from muram import cli
    from muram.errors import InternalInvariant

    def boom(args):
        raise InternalInvariant("forced for the exit-code contract")

    monkeypatch.setitem(cli._HANDLERS, "ramify", boom)
    path = write_covering(tmp_path, kummer_obj(3, [1], [[0, 1]]))
    assert main(["ramify", "--input", path]) == 3


def test_table_format(tmp_path, capsys):
    path = write_covering(tmp_path, kummer_obj(3, [1], [[0, 1]]))
    code = main(["--format", "table", "ramify", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree: 2" in out


def test_cocycle_kind_roundtrip(tmp_path, capsys):
    # the same covering presented as an explicit table
    obj = {
        "group": {"p": 2, "exponents": [1]},
        "kind": "cocycle",
        "entries": [[[0], [0], [1]], [[0], [1], [1]], [[1], [1], [0, 1]]],
    }
    path = write_covering(tmp_path, obj)
    code, rep = run(capsys, ["ramify", "--input", path])
    assert code == 0 and rep["degree"] == 1


def test_infinity_degrees_from_file(tmp_path, capsys):
    obj = kummer_obj(2, [1], [[0, 1]], infinity_degrees=[0, 1])
    path = write_covering(tmp_path, obj)
    code, rep = run(capsys, ["ramify", "--input", path, "--include-infinity"])
    assert code == 0 and rep["degree"] == 2


@pytest.mark.parametrize(
    "obj, prefix",
    [
        ({"kind": "kummer"}, "$"),
        ({"group": {"p": 2, "exponents": [1]}, "kind": "kummer", "f": "ab"}, "$"),
        ([], "$"),
        (kummer_obj(2, [1], [[0, 1]], twist=[{"elt": [1, 2], "num": [1], "den": [1]}]), "$"),
        ({"group": {"p": 2, "exponents": [1]}, "kind": "cocycle",
          "entries": [[[1, 0], [1], [0, 1]]]}, "$"),
        (kummer_obj(2, [1], [[0, 1]], twist=[{"elt": [1], "num": [1], "den": [0]}]), "$"),
        ({"group": {"p": 2, "exponents": [1]}, "kind": "weird", "f": [[0, 1]]}, "$.kind: "),
        ({"group": {"p": 2, "exponents": [1]}, "kind": ["x"], "f": [[0, 1]]}, "$.kind: "),
    ],
    ids=["no-group", "f-not-array", "top-level-array", "twist-elt-length", "entry-elt-length",
         "zero-twist-denominator", "unknown-kind", "kind-not-string"],
)
def test_malformed_covering_is_exit_1(tmp_path, capsys, obj, prefix):
    path = write_covering(tmp_path, obj)
    assert main(["ramify", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.startswith("error: " + prefix)


@pytest.mark.parametrize(
    "command,obj,message",
    [
        ("ramify", kummer_obj(1000000000000000003, [1], [[0, 1]]),
         "$.group: characteristic 1000000000000000003 exceeds"),
        ("ramify", kummer_obj(4, [1], [[0, 1]]), "$.group: characteristic 4 is not prime"),
        # the base is the projective line, of genus 0
        ("genus", kummer_obj(2, [1], [[0, 1]], g_X=-8), "$.g_X: "),
        ("genus", kummer_obj(2, [1], [[0, 1]], g_X=1), "$.g_X: "),
        # refused from the exponent, before 3^4000000 is computed
        ("ramify", kummer_obj(3, [4000000], [[0, 1]]),
         "$.group: group order 3^4000000 exceeds 65536"),
        ("genus", kummer_obj(3, [30], [[0, 1]]), "$.group: group order 3^30 exceeds 65536"),
        # a misspelled key is refused, not ignored
        ("genus", kummer_obj(2, [1], [[0, 1]], twsit=[{"elt": [1], "num": [1], "den": [0, 1]}]),
         "$.twsit: unknown key"),
        ("genus", kummer_obj(2, [1], [[0, 1]], infinity_degree=[0, 5]),
         "$.infinity_degree: unknown key"),
        ("ramify", {"group": {"p": 2, "exponents": [1], "exponent": [3]}, "kind": "kummer",
                    "f": [[0, 1]]}, "$.group.exponent: unknown key"),
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=[{"elt": [1], "num": [1], "dem": [1]}]),
         "$.twist[0].dem: unknown key"),
        ("ramify", {"group": {"p": 2, "exponents": [1]}, "kind": "cocycle", "entries": [],
                    "f": [[0, 1]]}, "$.f: unknown key"),
        # a twist that is no array is refused, not read as untwisted
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=0), "$.twist: expected an array"),
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist={}), "$.twist: expected an array"),
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=""), "$.twist: expected an array"),
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=False), "$.twist: expected an array"),
        # a second record for one element or pair would replace the first;
        # 1, [1] and [3] are one element of Z/2
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=[{"elt": 1, "num": [1], "den": [1]},
                                                      {"elt": [3], "num": [0, 1], "den": [1]}]),
         "$.twist[1]: repeats the element 1"),
        ("ramify", {"group": {"p": 2, "exponents": [1]}, "kind": "cocycle",
                    "entries": [[[0], [0], [1]], [[0], [1], [1]], [[1], [1], [0, 1]],
                                [1, [3], [1, 1]]]},
         "$.entries[3]: repeats the pair (1, 1)"),
        # a zero twist is refused on reading, as a zero denominator is, by every command
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=[{"elt": [1], "num": [0], "den": [1]}]),
         "$.twist[0].num: zero twist"),
        ("validate", kummer_obj(2, [1], [[0, 1]], twist=[{"elt": [1], "num": [0, 0], "den": [1]}]),
         "$.twist[0].num: zero twist"),
        ("gorenstein", kummer_obj(2, [2], [[0, 1]], twist=[{"elt": [2], "num": [], "den": [1]}]),
         "$.twist[0].num: zero twist"),
        # the identity's chart degree is 0; another value is refused, not dropped
        ("genus", kummer_obj(2, [1], [[0, 1]], infinity_degrees=[5, 1]),
         "$.infinity_degrees[0]: "),
        ("genus", kummer_obj(2, [1], [[0, 1]], infinity_degrees=[0]),
         "$.infinity_degrees: must list 2 integers"),
        # the identity's twist is 1; another value is refused with its record
        ("ramify", kummer_obj(2, [1], [[0, 1]], twist=[{"elt": [1], "num": [1], "den": [1]},
                                                      {"elt": [0], "num": [0, 1], "den": [1]}]),
         "$.twist[1]: twist must send 0 to 1"),
        ("validate", kummer_obj(2, [1], [[0, 1], [1, 1]]),
         "$.f: need one chart equation per invariant factor (1), got 2"),
    ],
    ids=["huge-characteristic", "composite-characteristic", "negative-g_X", "positive-g_X",
         "huge-exponent", "order-3^30",
         "misspelled-twist", "misspelled-infinity-degrees", "misspelled-group-exponents",
         "misspelled-twist-record-key", "kummer-key-in-a-cocycle", "twist-zero",
         "twist-object", "twist-string", "twist-false", "repeated-twist-element",
         "repeated-entry-pair", "zero-twist", "zero-twist-validate", "zero-twist-gorenstein",
         "identity-chart-degree", "short-chart-degrees", "identity-twist",
         "extra-chart-equation"],
)
def test_refused_input_is_exit_1(tmp_path, capsys, command, obj, message):
    path = write_covering(tmp_path, obj)
    assert main([command, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


@pytest.mark.parametrize("twist", [None, []], ids=["null", "empty"])
def test_null_or_empty_twist_is_untwisted(tmp_path, capsys, twist):
    plain = run(capsys, ["ramify", "--input", write_covering(tmp_path, kummer_obj(2, [1], [[0, 1]]))])
    path = write_covering(tmp_path, kummer_obj(2, [1], [[0, 1]], twist=twist), "twisted.json")
    assert run(capsys, ["ramify", "--input", path]) == plain


def test_mirror_entry_is_left_to_validate(tmp_path, capsys):
    # (0, 1) and (1, 0) are two pairs; validate judges whether they agree
    obj = {"group": {"p": 2, "exponents": [1]}, "kind": "cocycle",
           "entries": [[[0], [0], [1]], [[0], [1], [1]], [[1], [0], [1]], [[1], [1], [0, 1]]]}
    code, rep = run(capsys, ["validate", "--input", write_covering(tmp_path, obj)])
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("form", ["kummer", "raw"])
def test_constant_chart_equation(tmp_path, capsys, form):
    # z^{p^n} = 1 is (z - 1)^{p^n}: a p-th power, so not integral; every
    # subcommand but validate refuses it, genus by its integrality check and
    # the others with ramify's NonIntegralModel, at every place
    from muram.errors import NonIntegralModel
    from muram.fppoly import Place
    from muram.ramification import multiplicity_at, normalize_local_model
    from muram.serialize import covering_from_obj

    refused = {"schema_version": 1, "rejected": "NonIntegralModel",
               "detail": "chart equation 1 is a p-th power; the covering is not integral"}

    def covering_file(n):
        obj = (kummer_obj(2, [n], [[1]]) if form == "kummer"
               else covering_to_obj(covering.Cocycle.trivial(PGroup(2, (n,)))))
        return obj, write_covering(tmp_path, obj, f"z{2 ** n}.json")

    obj, path = covering_file(1)
    code, rep = run(capsys, ["validate", "--input", path])
    assert code == 0 and rep["ok"]
    for flags in ([], ["--include-infinity"]):
        for command in (["ramify"], ["gorenstein"]):
            assert run(capsys, command + flags + ["--input", path]) == (2, refused)
    kd = covering.kummer_form(covering_from_obj(obj)[0])
    for text, place in [("0,1", Place.finite(Poly.x(2))), ("infinity", Place.infinity(2))]:
        assert run(capsys, ["oracle", "--place", text, "--input", path]) == (2, refused)
        for refuse in (multiplicity_at, normalize_local_model):
            with pytest.raises(NonIntegralModel, match=refused["detail"]):
                refuse(kd, place)
    code, rep = run(capsys, ["genus", "--input", path])
    assert code == 2 and rep["rejected"] == "HypothesisFailure"
    assert rep["detail"] == "integrality: chart equation 1 is a p-th power"

    _, path = covering_file(2)
    for flags in ([], ["--include-infinity"], ["--with-oracle"],
                  ["--with-oracle", "--include-infinity"]):
        assert run(capsys, ["devissage", "-m", "1", *flags, "--input", path]) == (2, refused)


@pytest.mark.parametrize("argv", [["gorenstein", "--search", "--count", "-1"],
                                  ["fuzz", "--count", "-3"]])
def test_negative_count_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--count: must be at least 0" in captured.err


@pytest.mark.parametrize("value", ["2", "2,1,1", "a,1"])
def test_malformed_pn_is_a_usage_error(capsys, value):
    assert main(["fuzz", "--pn", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --pn: invalid shape value: '{value}'" in captured.err


@pytest.mark.parametrize("argv", [["gorenstein", "--search", "--count", "0"],
                                  ["fuzz", "--count", "0"]])
def test_zero_count_checks_nothing(capsys, argv):
    code, rep = run(capsys, argv)
    assert code == 0
    assert rep.get("checked_places", 0) == 0 and rep.get("checked", {}).get("models", 0) == 0


@pytest.mark.parametrize("command", [["genus"], ["gorenstein", "--include-infinity"]])
def test_raw_cyclic_table_is_decomposed_once(tmp_path, capsys, monkeypatch, command):
    from muram import covering

    calls = []
    decompose = covering.forward_decompose

    def counted(c):
        calls.append(c)
        return decompose(c)

    monkeypatch.setattr(covering, "forward_decompose", counted)
    z4_x3 = covering.KummerData(PGroup(2, (2,)), (Poly(2, [0, 0, 0, 1]),)).to_cocycle()
    path = write_covering(tmp_path, covering_to_obj(z4_x3))
    assert main(command + ["--input", path]) == 0
    assert len(calls) == 1


def test_raw_product_table_chart_at_infinity_is_checked_once(tmp_path, capsys, monkeypatch):
    calls = []
    check = covering.InfinityChart.check_integral
    monkeypatch.setattr(covering.InfinityChart, "check_integral",
                        lambda chart: calls.append(chart) or check(chart))
    kd = covering.KummerData(PGroup(2, (1, 1)), (Poly.x(2), Poly(2, [1, 1])))
    degrees = covering.canonical_infinity_degrees(kd)
    obj = dict(covering_to_obj(kd.to_cocycle()),
               infinity_degrees=[degrees[m] for m in kd.group.elements()])
    code, rep = run(capsys, ["gorenstein", "--include-infinity",
                             "--input", write_covering(tmp_path, obj)])
    assert code == 0 and len(calls) == 1
    assert [row["place"]["kind"] for row in rep["places"]] == ["finite", "finite", "infinity"]


def test_validate_reconstructs_a_raw_cyclic_table_once(tmp_path, capsys, monkeypatch):
    import random

    from muram import covering
    from muram.randgen import random_integral_twist

    calls = []
    reconstruct = covering._reconstruct

    def counted(c):
        calls.append(c)
        return reconstruct(c)

    monkeypatch.setattr(covering, "_reconstruct", counted)
    g = PGroup(3, (2,))
    twisted = covering.KummerData(g, (Poly.x(3),), random_integral_twist(random.Random(4), g))
    path = write_covering(tmp_path, covering_to_obj(twisted.to_cocycle()))
    code, rep = run(capsys, ["validate", "--input", path])
    assert (code, rep["ok"], rep["failures"]) == (0, True, [])
    assert len(calls) == 1


TRIVIAL_GROUP = {"group": {"p": 3, "exponents": []}, "kind": "kummer", "f": []}

FILE_COMMANDS = [
    ["validate"],
    ["ramify"],
    ["ramify", "--include-infinity"],
    ["oracle", "--place", "infinity"],
    ["devissage", "-m", "1"],
    ["gorenstein"],
    ["gorenstein", "--include-infinity"],
    ["genus"],
]


def assert_documented_exit(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (0, 2):
        json.loads(out)


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: "_".join(a.lstrip("-") for a in c))
def test_trivial_group_gets_a_documented_exit(tmp_path, capsys, command):
    path = write_covering(tmp_path, TRIVIAL_GROUP)
    code = main(command + ["--input", path])
    captured = capsys.readouterr()
    assert_documented_exit(code, captured.out, captured.err)


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: "_".join(a.lstrip("-") for a in c))
@pytest.mark.parametrize("source", ["directory", "deep-nesting"])
def test_unreadable_input_is_exit_1(tmp_path, capsys, command, source):
    path = tmp_path
    if source == "deep-nesting":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
    assert main(command + ["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.startswith("error: ")


NO_LOCAL_MODEL = "the trivial group has no cyclic factor Z/p^n with n >= 1, so it has no local models"


@pytest.mark.parametrize("obj", [
    {"group": {"p": 2, "exponents": []}, "f": []},
    {"group": {"p": 2, "exponents": []}, "kind": "cocycle", "entries": []},
], ids=["kummer", "raw"])
@pytest.mark.parametrize("command, detail", [
    (["devissage", "-m", "1"], NO_LOCAL_MODEL + " and no layer 0 < m < n"),
    (["oracle", "--place", "0,1"], NO_LOCAL_MODEL),
], ids=["devissage", "oracle"])
def test_trivial_group_is_refused_by_name(tmp_path, capsys, obj, command, detail):
    code, rep = run(capsys, command + ["--input", write_covering(tmp_path, obj)])
    assert code == 2
    assert rep == {"schema_version": 1, "rejected": "UnsupportedGroup", "detail": detail}


def test_trivial_group_genus_is_the_base_genus(tmp_path, capsys):
    # rank 0 is no product grading: the covering is the identity of the line
    path = write_covering(tmp_path, TRIVIAL_GROUP)
    code, rep = run(capsys, ["genus", "--input", path])
    assert code == 0
    assert rep["g_Y"] == 0 and rep["deg_R"] == 0


# alpha(2, 2) = x + 1 differs from the reconstruction from the column (x, 1)
UNDECOMPOSABLE_TABLE = {"group": {"p": 3, "exponents": [1]}, "kind": "cocycle",
                        "entries": [[[1], [1], [0, 1]], [[2], [1], [1]], [[2], [2], [1, 1]]]}


def test_undecomposable_raw_table_is_refused_by_genus_as_by_ramify(tmp_path, capsys):
    raw = UNDECOMPOSABLE_TABLE
    want = (2, {"schema_version": 1, "rejected": "UnsupportedDecomposition",
                "detail": "table is not a valid symmetric cocycle at (2,2)"})
    path = write_covering(tmp_path, raw)
    assert run(capsys, ["ramify", "--input", path]) == want
    assert run(capsys, ["genus", "--input", path]) == want
    with_degrees = write_covering(tmp_path, dict(raw, infinity_degrees=[0, 1, 1]), "degrees.json")
    assert run(capsys, ["genus", "--input", with_degrees]) == want


def test_genus_and_gorenstein_refuse_the_same_chart_first(tmp_path, capsys):
    # z^2 = x^3 + 1 is singular at (x + 1), but degrees [0, 0] already fail the chart at infinity
    path = write_covering(tmp_path, kummer_obj(2, [1], [[1, 0, 0, 1]], infinity_degrees=[0, 0]))
    detail = "entry (1,1) needs u-exponent -3; increase the chart degrees"
    code, rep = run(capsys, ["genus", "--input", path])
    assert code == 2 and rep["rejected"] == "HypothesisFailure"
    assert rep["detail"] == "charts: " + detail
    code, rep = run(capsys, ["gorenstein", "--include-infinity", "--input", path])
    assert code == 2 and rep["rejected"] == "NonIntegralCocycle" and rep["detail"] == detail


def all_ones_table(n):
    return covering_to_obj(covering.Cocycle.trivial(PGroup(2, (n,))))


PRODUCT = covering.KummerData(PGroup(2, (1, 1)), (Poly(2, [0, 1]), Poly(2, [1, 1])))
REFUSAL_CORPUS = {
    "z2=1": kummer_obj(2, [1], [[1]]),
    "z2=1-raw": all_ones_table(1),
    "z4=1": kummer_obj(2, [2], [[1]]),
    "z4=1-raw": all_ones_table(2),
    "product-x-1": kummer_obj(2, [1, 1], [[0, 1], [1]]),
    "z2=x^2": kummer_obj(2, [1], [[0, 0, 1]]),
    "cusp-z2=1+x^3": kummer_obj(2, [1], [[1, 0, 0, 1]]),
    "partial-at-x-z4=x^2(x+1)": kummer_obj(2, [2], [[0, 0, 1, 1]]),
    "partial-at-infinity-z4=x+x^2": kummer_obj(2, [2], [[0, 1, 1]]),
    "undecomposable-raw": UNDECOMPOSABLE_TABLE,
    "product-x-x+1": covering_to_obj(PRODUCT),
    "product-x-x+1-raw": covering_to_obj(PRODUCT.to_cocycle()),
}


@pytest.mark.parametrize("flags", [[], ["--include-infinity"]], ids=["affine", "infinity"])
@pytest.mark.parametrize("name", list(REFUSAL_CORPUS))
def test_one_refusal_per_input_across_subcommands(tmp_path, capsys, name, flags):
    # gorenstein, devissage and oracle answer with ramify's exit code and
    # refuse with its rejection, except that oracle and devissage refuse
    # local models of rank != 1 first, with one UnsupportedGroup; genus
    # refuses whatever ramify refuses at infinity
    obj = REFUSAL_CORPUS[name]
    exponents = obj["group"]["exponents"]
    path = write_covering(tmp_path, obj)
    code, want = run(capsys, ["ramify", *flags, "--input", path])
    commands = [["gorenstein", *flags], ["oracle", "--place", "infinity" if flags else "0,1"]]
    if sum(exponents) >= 2:
        commands.append(["devissage", "-m", "1", *flags])
    cyclic_only = []
    for command in commands:
        got_code, got = run(capsys, command + ["--input", path])
        if len(exponents) != 1 and command[0] != "gorenstein":
            assert (got_code, got["rejected"]) == (2, "UnsupportedGroup"), command
            cyclic_only.append(got)
            continue
        assert got_code == code, command
        if code == 2:
            assert (got["rejected"], got["detail"]) == (want["rejected"], want["detail"]), command
    assert all(got == cyclic_only[0] for got in cyclic_only)
    if flags and code == 2:
        assert run(capsys, ["genus", "--input", path])[0] == 2


def test_raw_trivial_group_table_needs_no_chart_degrees(tmp_path, capsys):
    # the one chart degree at infinity, d(0) = 0, is canonical
    raw = {"group": {"p": 3, "exponents": []}, "kind": "cocycle", "entries": []}
    code, rep = run(capsys, ["genus", "--input", write_covering(tmp_path, raw)])
    assert code == 0
    assert rep["g_Y"] == 0 and rep["deg_R"] == 0
    # a table whose one entry alpha(0, 0) is not 1 is still refused, as ramify refuses it
    bad = write_covering(tmp_path, dict(raw, entries=[[[], [], [0, 1]]]), "bad.json")
    code, rep = run(capsys, ["genus", "--input", bad])
    assert code == 2 and rep["rejected"] == "UnsupportedDecomposition"
    assert (code, rep) == run(capsys, ["ramify", "--input", bad])


# the CLI contract on covering-shaped input: group order <= 9 (the trivial
# group included), polynomials of degree <= 6, then possibly one key
# removed or one value replaced by a value of the wrong type

GROUP_SHAPES = {
    2: [[], [1], [2], [3], [1, 1], [2, 1]],
    3: [[], [1], [2], [1, 1]],
    5: [[], [1]],
}
CONTRACT_COMMANDS = [c for c in FILE_COMMANDS if c[0] in ("validate", "ramify", "genus", "gorenstein")]
WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(allow_nan=False),
    st.just([]), st.just({}), st.just([[1]]), st.just({"p": 2}),
)


@st.composite
def covering_objs(draw):
    p = draw(st.sampled_from(sorted(GROUP_SHAPES)))
    exponents = list(draw(st.sampled_from(GROUP_SHAPES[p])))
    rank = len(exponents)
    order = p ** sum(exponents)
    polys = st.lists(st.integers(-1, p), max_size=6).map(lambda cs: cs + [1])
    elts = st.lists(st.integers(-1, p ** max(exponents, default=0)), min_size=rank, max_size=rank)
    obj = {"group": {"p": p, "exponents": exponents}}
    if draw(st.booleans()):
        obj["kind"] = "kummer"
        obj["f"] = draw(st.lists(polys, min_size=rank, max_size=rank))
        if draw(st.booleans()):
            obj["twist"] = draw(st.lists(
                st.fixed_dictionaries({"elt": elts, "num": polys, "den": polys}), max_size=2
            ))
    else:
        obj["kind"] = "cocycle"
        obj["entries"] = draw(st.lists(st.tuples(elts, elts, polys).map(list), max_size=6))
    if draw(st.booleans()):
        obj["infinity_degrees"] = draw(st.lists(st.integers(0, 9), min_size=order, max_size=order))
    if draw(st.booleans()):
        obj["g_X"] = draw(st.integers(-1, 2))
    if draw(st.booleans()):
        paths = list(_paths(obj))
        *parent, last = draw(st.sampled_from(paths))
        node = obj
        for key in parent:
            node = node[key]
        if draw(st.booleans()):
            del node[last]
        else:
            node[last] = draw(WRONG_TYPES)
    return obj


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(obj=covering_objs(), command=st.sampled_from(CONTRACT_COMMANDS))
@example(obj=TRIVIAL_GROUP, command=["gorenstein"])
@example(obj=TRIVIAL_GROUP, command=["gorenstein", "--include-infinity"])
def test_cli_contract_on_covering_files(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cov.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + ["--input", path])
    assert_documented_exit(code, out.getvalue(), err.getvalue())
