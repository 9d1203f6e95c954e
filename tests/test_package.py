"""The package's public names, and the records the library returns.

`muram` resolves its names on first use, and its record classes are
plain classes; both must look exactly as they did when the package
imported every module eagerly and the records were dataclasses.  The
records are compared with test-local dataclass copies of those
definitions.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import pytest

import muram
from muram import covering, divisors, pgroup, ramification, rh_genus, snf_oracle
from muram._record import Record
from muram.pgroup import PGroup, subgroup_generated
from muram.randgen import random_integral_twist, random_normal_cyclic_kummer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALL = [
    'AlgebraElt', 'Cocycle', 'DevissageReport', 'Divisor', 'FixedIdealReport', 'GElt',
    'GenusReport', 'GlnRegressionReport', 'GlobalModel', 'KummerData', 'LocalModel', 'PGroup',
    'Place', 'Poly', 'PresentationMatrix', 'RamReport', 'RatFun', 'Subgroup', 'SymbolicPlace',
    'ValidationReport', 'algebra', 'algebra_inverse', 'algebra_valuation', 'build_presentation',
    'canonical_infinity_degrees', 'chart_at_infinity', 'cocycle_from_column', 'covering',
    'derive_sign', 'det_M_phi_bruteforce', 'det_M_phi_formula', 'devissage_check',
    'diagonal_coefficients', 'divisors', 'errors', 'factor',
    'fixed_ideal_relation_check', 'fixed_ideal_valuation_at', 'forward_decompose', 'fppoly',
    'gln_regression', 'gorenstein', 'gorenstein_at', 'is_irreducible', 'is_pth_power',
    'multiplicity_at', 'normalize_local_model', 'oracle_multiplicity', 'pgroup', 'poly_gcd',
    'predict_genus', 'pullback', 'ramification', 'ramification_divisor', 'rh_genus', 'sigma',
    'sign_table', 'snf_length', 'snf_oracle', 'stabilizer_subgroup_at', 'subgroup_generated',
    'support_places', 'torsor_at', 'total_ram_degree', 'twist', 'untwisted_local_model',
    'validate', 'valuation',
]

# the module each name came from when the package imported them all
HOME = {
    "algebra": "AlgebraElt algebra_inverse",
    "covering": "Cocycle KummerData ValidationReport canonical_infinity_degrees "
                "chart_at_infinity cocycle_from_column forward_decompose support_places "
                "torsor_at twist validate",
    "divisors": "Divisor SymbolicPlace pullback",
    "fppoly": "Place Poly RatFun factor is_irreducible is_pth_power poly_gcd valuation",
    "gorenstein": "derive_sign det_M_phi_bruteforce det_M_phi_formula diagonal_coefficients "
                  "gorenstein_at sign_table",
    "pgroup": "GElt PGroup Subgroup sigma subgroup_generated",
    "ramification": "DevissageReport FixedIdealReport GlnRegressionReport LocalModel RamReport "
                    "devissage_check fixed_ideal_relation_check fixed_ideal_valuation_at "
                    "gln_regression multiplicity_at normalize_local_model ramification_divisor "
                    "stabilizer_subgroup_at untwisted_local_model",
    "rh_genus": "GenusReport GlobalModel predict_genus total_ram_degree",
    "snf_oracle": "PresentationMatrix algebra_valuation build_presentation oracle_multiplicity "
                  "snf_length",
}
SUBMODULES = ["algebra", "covering", "divisors", "errors", "fppoly", "gorenstein", "pgroup",
              "ramification", "rh_genus", "snf_oracle"]

# in a fresh interpreter, each name of the package before its module is imported
RESOLVE = """
import importlib, json, sys
import muram
home, submodules = json.loads(sys.argv[1]), json.loads(sys.argv[2])
wrong = []
for name in muram.__all__:
    value = getattr(muram, name)
    if name in submodules:
        expected = importlib.import_module("muram." + name)
    else:
        expected = getattr(importlib.import_module("muram." + home[name]), name)
    if value is not expected:
        wrong.append(name)
print(json.dumps(wrong))
"""


def test_all_is_the_public_api():
    assert muram.__all__ == ALL
    assert len(ALL) == 68
    assert sorted([*SUBMODULES, *(n for names in HOME.values() for n in names.split())]) == ALL


def test_every_name_resolves_to_its_modules_object():
    home = {name: module for module, names in HOME.items() for name in names.split()}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", RESOLVE, json.dumps(home), json.dumps(SUBMODULES)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    # and in this process, where the modules are loaded already
    for name, module in home.items():
        assert getattr(muram, name) is getattr(sys.modules["muram." + module], name)


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(ALL) <= set(dir(muram))
    assert muram.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        muram.not_a_name
    assert not hasattr(muram, "dataclass")


# --- the records, against dataclass copies of their earlier definitions ----

@dataclass
class ValidationReport:
    failures: list = field(default_factory=list)


@dataclass(frozen=True)
class KummerData:
    group: object
    factors: tuple
    twist: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class SymbolicPlace:
    name: str
    degree_value: int | None = 1


@dataclass(frozen=True)
class Subgroup:
    group: object
    members: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "members", tuple(sorted(set(self.members), key=lambda g: g.residues))
        )


@dataclass(frozen=True)
class LocalModel:
    p: int
    n: int
    place: object
    pi: object
    f_red: object
    c: int


@dataclass
class RamReport:
    place: object
    stabilizer: object


@dataclass
class DevissageReport:
    total: object
    lower: object
    upper: object
    pullback_indices: dict
    equal: bool
    oracle_agrees: bool | None = None


@dataclass
class FixedIdealReport:
    place: object
    ideal_valuation: int
    multiplicity: int
    order: int


@dataclass
class GlnRegressionReport:
    lhs: object
    base_part: object
    pulled: object
    rhs: object
    equal: bool
    degenerate_height_one: bool


@dataclass
class GlobalModel:
    covering: object
    infinity_degrees: dict | None = None


@dataclass
class GenusReport:
    group_order: int
    deg_R: int
    divisor: object
    rhs: int
    g_Y: int | None
    non_integer: bool
    per_place: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class PresentationMatrix:
    rows: tuple
    labels: tuple
    columns: list


def _kummer(seed, twisted=False):
    rng = random.Random(seed)
    p, n = rng.choice([(2, 1), (2, 2), (3, 1), (2, 3)])
    kd = random_normal_cyclic_kummer(rng, p, n, max_deg=4)
    if twisted:
        return covering.KummerData(kd.group, kd.factors, random_integral_twist(rng, kd.group))
    return kd


def _model(seed):
    kd = _kummer(seed)
    place = next(v for v in covering.support_places(kd) if not v.is_infinity)
    return ramification.normalize_local_model(kd, place)


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


def _seeded_args(cls_name, seed):
    """Constructor arguments for one seeded instance, in field order."""
    if cls_name == "ValidationReport":
        return ([] if seed % 2 else [("symmetry", (str(seed), "1"))],)
    if cls_name == "KummerData":
        kd = _kummer(seed, twisted=seed % 2 == 0)
        return kd.group, list(kd.factors), kd.twist
    if cls_name == "SymbolicPlace":
        return (f"D{seed % 2}", None if seed % 3 == 0 else seed % 2 + 1)
    if cls_name == "Subgroup":
        group = PGroup(2, (3,)) if seed % 2 else PGroup(3, (1, 1))
        members = subgroup_generated(group, [list(group.elements())[seed % 3 + 1]]).members
        return group, list(reversed(members)) + [members[0]]
    if cls_name == "LocalModel":
        return _values(_model(seed), ("p", "n", "place", "pi", "f_red", "c"))
    if cls_name == "RamReport":
        r = ramification.ramification_divisor(_kummer(seed), include_infinity=True)[1][0]
        return r.place, r.stabilizer
    if cls_name == "DevissageReport":
        rng = random.Random(seed)
        kd = random_normal_cyclic_kummer(rng, 2, 2, max_deg=4)
        rep = ramification.devissage_check(kd, 1, with_oracle=seed % 2 == 0)
        return _values(rep, ("total", "lower", "upper", "pullback_indices", "equal",
                             "oracle_agrees"))
    if cls_name == "FixedIdealReport":
        rep = ramification.fixed_ideal_relation_check(_model(seed))
        return _values(rep, ("place", "ideal_valuation", "multiplicity", "order"))
    if cls_name == "GlnRegressionReport":
        rep = ramification.gln_regression(*((2, 1, 1, 2) if seed % 2 else (3, 2, 1, 3)))
        return _values(rep, ("lhs", "base_part", "pulled", "rhs", "equal",
                             "degenerate_height_one"))
    if cls_name == "GlobalModel":
        kd = _kummer(seed)
        return kd, (covering.canonical_infinity_degrees(kd) if seed % 2 else None)
    if cls_name == "GenusReport":
        rep = rh_genus.predict_genus(rh_genus.GlobalModel(_kummer(seed)))
        return _values(rep, ("group_order", "deg_R", "divisor", "rhs", "g_Y", "non_integer",
                             "per_place", "notes"))
    if cls_name == "PresentationMatrix":
        rep = snf_oracle.build_presentation(_model(seed))
        return rep.rows, rep.labels, rep.columns
    raise AssertionError(cls_name)


RECORDS = [
    (covering.ValidationReport, ValidationReport),
    (covering.KummerData, KummerData),
    (divisors.SymbolicPlace, SymbolicPlace),
    (pgroup.Subgroup, Subgroup),
    (ramification.LocalModel, LocalModel),
    (ramification.RamReport, RamReport),
    (ramification.DevissageReport, DevissageReport),
    (ramification.FixedIdealReport, FixedIdealReport),
    (ramification.GlnRegressionReport, GlnRegressionReport),
    (rh_genus.GlobalModel, GlobalModel),
    (rh_genus.GenusReport, GenusReport),
    (snf_oracle.PresentationMatrix, PresentationMatrix),
]
FROZEN = {"KummerData", "SymbolicPlace", "Subgroup", "LocalModel"}


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("record, copy", RECORDS, ids=lambda c: c.__name__)
def test_record_behaves_like_its_dataclass_definition(record, copy):
    assert record.__name__ == copy.__name__ and not hasattr(record, "__dataclass_fields__")
    names = [f.name for f in fields(copy)]
    seeds = [1, 2, 1, 3, 4, 3]  # repeated seeds give equal values in distinct objects
    built = []
    for seed in seeds:
        args = _seeded_args(record.__name__, seed)
        kwargs = dict(zip(names, args))
        real, ref = record(*args), copy(*args)
        assert repr(real) == repr(ref)
        assert repr(record(**kwargs)) == repr(ref) and record(**kwargs) == real
        assert _values(real, names) == _values(ref, names)
        if record.__name__ == "KummerData" and real.twist:
            # the dataclass could not hash its twist dict; the record hashes its keys
            assert _hash_or_error(ref) is TypeError and hash(real) == hash(record(**kwargs))
        elif record.__name__ in FROZEN:
            assert _hash_or_error(real) == _hash_or_error(ref)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(real)
        built.append((real, ref))
    assert len({repr(ref) for _, ref in built}) > 1
    for real_a, ref_a in built:
        assert (real_a == ref_a) is False and (real_a != 1) is True
        for real_b, ref_b in built:
            assert (real_a == real_b) == (ref_a == ref_b)
            assert (real_a != real_b) == (ref_a != ref_b)


@pytest.mark.parametrize("record, copy", RECORDS, ids=lambda c: c.__name__)
def test_record_defaults_are_its_dataclass_defaults(record, copy):
    names = [f.name for f in fields(copy)]
    required = [f.name for f in fields(copy) if f.default is f.default_factory is MISSING]
    args = _seeded_args(record.__name__, 1)[:len(required)]
    real, ref = record(*args), copy(*args)
    assert repr(real) == repr(ref)
    assert _values(real, names) == _values(ref, names)
    # a default list is fresh per instance
    for f in fields(copy):
        if f.default_factory is not MISSING:
            assert getattr(record(*args), f.name) is not getattr(real, f.name)


def test_records_keep_their_cached_properties():
    expected = {
        pgroup.Subgroup: ["_member_set"],
        ramification.LocalModel: ["group", "t", "vA", "_entry_values"],
        rh_genus.GlobalModel: ["kummer"],
    }
    for cls, names in expected.items():
        assert [n for n in names if isinstance(vars(cls).get(n), cached_property)] == names
    model = _model(5)
    assert model.vA is model.vA and model == ramification.LocalModel(
        *_values(model, ("p", "n", "place", "pi", "f_red", "c")))


@pytest.mark.parametrize("record, copy", RECORDS, ids=lambda c: c.__name__)
def test_record_refuses_the_arguments_its_dataclass_refuses(record, copy):
    names = [f.name for f in fields(copy)]
    required = [f.name for f in fields(copy) if f.default is f.default_factory is MISSING]
    args = _seeded_args(record.__name__, 2)
    calls = [
        ("too many", args + (None,), {}),
        ("unknown keyword", args, {"not_a_field": 1}),
        ("given twice", args, {names[0]: args[0]}),
    ]
    if required:
        calls.append(("missing", args[:len(required) - 1], {}))
    for why, call_args, call_kwargs in calls:
        for cls in (copy, record):
            with pytest.raises(TypeError):
                cls(*call_args, **call_kwargs)
                pytest.fail(f"{cls.__name__}: {why} was accepted")


def test_every_record_is_held_against_its_dataclass():
    for module in SUBMODULES:
        importlib.import_module("muram." + module)
    found, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ != Record.__module__ and not cls.__name__.startswith("_"):
            found.add(cls)
    assert found == {record for record, _ in RECORDS}
