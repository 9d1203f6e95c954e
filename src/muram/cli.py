"""Command-line front end.

Subcommands: validate, ramify, oracle, devissage, gorenstein, genus,
regress-gln, fuzz.  Reports are JSON on stdout (deterministic ordering,
schema_version field) or an aligned table with --format table.  Exit
codes: 0 success, 1 usage error, 2 model rejection, 3 internal
invariant violation (including a formula/oracle mismatch, which would
mean the mathematics and the implementation disagree).
"""

from __future__ import annotations

import argparse
import json
import sys

from .covering import (
    KummerData, cocycle_from_column, forward_decompose, kummer_form, support_places, validate,
)
from .errors import ExactArithError, InternalInvariant, ModelRejection, UnsupportedDecomposition
from .fppoly import Place, Poly
from .pgroup import PGroup
from .serialize import (
    SCHEMA_VERSION,
    covering_from_obj,
    covering_to_obj,
    divisor_to_obj,
    elt_to_obj,
    place_to_obj,
)

# serialize loads covering, fppoly and pgroup for every subcommand; each
# handler imports the other modules it runs, so that a call compiles and
# loads no module its subcommand does not use.


def _load_covering(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return covering_from_obj(obj)


def _load_kummer(path) -> KummerData:
    """The covering file at path in Kummer form (see kummer_form); a raw
    product table has none and is refused as product Kummer data is."""
    from .ramification import _require_cyclic

    cov = _load_covering(path)[0]
    kd = kummer_form(cov)
    if kd is None:
        _require_cyclic(cov)
    return kd


def _parse_place(text: str, p: int) -> Place:
    if text.strip().lower() in ("infinity", "inf", "oo"):
        return Place.infinity(p)
    coeffs = [int(c) for c in text.split(",")]
    return Place.finite(Poly(p, coeffs))


def _report_base(command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command}


def _ram_reports(reports) -> list:
    return [
        {
            "place": place_to_obj(r.place),
            "multiplicity": r.multiplicity,
            "stabilizer": [elt_to_obj(m) for m in r.stabilizer],
            "stabilizer_order": r.stabilizer.order,
            "totally_ramified": r.totally_ramified,
            "torsor": r.torsor,
            "normality": r.normality,
        }
        for r in reports
    ]


# handlers ------------------------------------------------------------------

def _cmd_validate(args):
    cov, _ = _load_covering(args.input)
    cocycle = cov.to_cocycle() if isinstance(cov, KummerData) else cov
    rep = validate(cocycle)
    out = _report_base("validate")
    out["ok"] = rep.ok
    out["failures"] = [{"invariant": name, "at": list(info)} for name, info in rep.failures]
    return out, 0 if rep.ok else 2


def _cmd_ramify(args):
    from .ramification import ramification_divisor

    cov, degrees = _load_covering(args.input)
    divisor, reports = ramification_divisor(
        cov, include_infinity=args.include_infinity, infinity_degrees=degrees
    )
    out = _report_base("ramify")
    out["divisor"] = divisor_to_obj(divisor)
    out["degree"] = divisor.degree()
    out["reports"] = _ram_reports(reports)
    return out, 0


def _cmd_oracle(args):
    from .ramification import multiplicity_at, normalize_local_model
    from .snf_oracle import oracle_multiplicity

    cov = _load_kummer(args.input)
    place = _parse_place(args.place, cov.group.p)
    # the formula first: a model that ramify refuses gets ramify's rejection
    formula = multiplicity_at(cov, place)
    oracle = oracle_multiplicity(normalize_local_model(cov, place))
    out = _report_base("oracle")
    out["place"] = place_to_obj(place)
    out["formula"] = formula
    out["oracle"] = oracle
    out["agree"] = formula == oracle
    if not out["agree"]:
        raise InternalInvariant(
            f"formula {formula} != oracle {oracle} at {place}: the two routes disagree"
        )
    return out, 0


def _cmd_devissage(args):
    from .ramification import devissage_check

    rep = devissage_check(_load_kummer(args.input), args.layer,
                          include_infinity=args.include_infinity, with_oracle=args.with_oracle)
    out = _report_base("devissage")
    out["total"] = divisor_to_obj(rep.total)
    out["lower"] = divisor_to_obj(rep.lower)
    out["upper"] = divisor_to_obj(rep.upper)
    out["pullback_indices"] = [
        {"place": place_to_obj(v), "index": e} for v, e in rep.pullback_indices.items()
    ]
    out["equal"] = rep.equal
    if rep.oracle_agrees is not None:
        out["oracle_agrees"] = rep.oracle_agrees
    if not rep.equal or rep.oracle_agrees is False:
        raise InternalInvariant("devissage identity failed on a certified-normal model")
    return out, 0


def _cmd_gorenstein(args):
    if args.search:
        return _gorenstein_search(args)
    from .gorenstein import sign_table
    from .rh_genus import GlobalModel, check_chart_consistency, gorenstein_places

    cov, degrees = _load_covering(args.input)
    gm = GlobalModel(cov, degrees)
    # the checks of predict_genus, in its order: both charts, then the places
    if args.include_infinity:
        check_chart_consistency(gm)
    else:
        cov.check_integral()
    _, reports = gm.ramification_divisor(args.include_infinity)
    out = _report_base("gorenstein")
    verdicts = gorenstein_places(gm, [r.place for r in reports])
    out["places"] = rows = [
        {
            "place": place_to_obj(r.place),
            "gorenstein": ok,
            "witness": None if witness is None else elt_to_obj(witness),
        }
        for r, (ok, witness) in zip(reports, verdicts)
    ]
    out["non_gorenstein_places"] = [row["place"] for row in rows if not row["gorenstein"]]
    # the sign is derived up to the brute-force cap, the orders the table lists
    signs = sign_table()
    if cov.group.is_cyclic:
        key = (cov.group.p, cov.group.exponents[0])
        if key in signs:
            out["sign"] = signs[key]
    out["sign_table"] = [
        {"p": p, "n": n, "sign": s} for (p, n), s in sorted(signs.items())
    ]
    return out, 0


def _gorenstein_search(args):
    """Fuzz for a non-Gorenstein place on integral twisted models.

    Records whatever it finds without asserting existence either way.
    """
    import random

    from .gorenstein import gorenstein_at
    from .randgen import random_integral_twist, random_normal_cyclic_kummer

    rng = random.Random(args.seed)
    shapes = [(2, (1, 1)), (3, (1, 1)), (2, (2,)), (3, (2,)), (2, (2, 1))]
    found = []
    checked = 0
    for _ in range(args.count):
        p, exps = shapes[rng.randrange(len(shapes))]
        group = PGroup(p, exps)
        factors = tuple(random_normal_cyclic_kummer(rng, p, n, max_deg=3).factors[0] for n in exps)
        kd = KummerData(group, factors, random_integral_twist(rng, group))
        try:
            kd.check_integral()
        except ModelRejection:
            continue
        for v in support_places(kd):
            checked += 1
            ok, _ = gorenstein_at(kd, v)
            if not ok:
                found.append(
                    {
                        "covering": covering_to_obj(kd),
                        "place": place_to_obj(v),
                    }
                )
    out = _report_base("gorenstein-search")
    out["checked_places"] = checked
    out["counterexamples"] = found
    return out, 0


def _cmd_genus(args):
    from .rh_genus import GlobalModel, predict_genus

    cov, degrees = _load_covering(args.input)
    rep = predict_genus(GlobalModel(cov, degrees))
    out = _report_base("genus")
    out["group_order"] = rep.group_order
    out["g_X"] = 0
    out["deg_R"] = rep.deg_R
    out["divisor"] = divisor_to_obj(rep.divisor)
    out["rhs"] = rep.rhs
    out["g_Y"] = rep.g_Y
    out["non_integer"] = rep.non_integer
    out["per_place"] = [
        dict(row, place=place_to_obj(row["place"]),
             witness=None if row["witness"] is None else elt_to_obj(row["witness"]))
        for row in rep.per_place
    ]
    out["notes"] = rep.notes
    return out, 0


def _cmd_regress_gln(args):
    from .ramification import gln_regression

    rep = gln_regression(args.p, args.n, args.beta, args.gamma)
    out = _report_base("regress-gln")
    out["lhs"] = rep.lhs.degree()
    out["base_part"] = rep.base_part.degree()
    out["pulled"] = rep.pulled.degree()
    out["rhs"] = rep.rhs.degree()
    out["equal"] = rep.equal
    out["degenerate_height_one"] = rep.degenerate_height_one
    out["summary"] = (
        f"{rep.lhs.degree()} "
        + ("==" if rep.equal else "!=")
        + f" {rep.base_part.degree()} + {rep.pulled.degree()}"
    )
    return out, 0


def _cmd_fuzz(args):
    import math
    import random

    from .covering import Cocycle
    from .gorenstein import det_M_phi_bruteforce, det_M_phi_formula
    from .ramification import devissage_check, normalize_local_model
    from .randgen import (
        random_cyclic_cocycle,
        random_integral_column,
        random_normal_cyclic_kummer,
        random_phi,
    )
    from .rh_genus import GlobalModel, predict_genus
    from .snf_oracle import oracle_multiplicity

    rng = random.Random(args.seed)
    failures = []
    checked = {"models": 0, "oracle_places": 0, "columns": 0, "determinants": 0, "devissage": 0}
    for p, n in args.pn or [(2, 1), (2, 2), (3, 1), (3, 2)]:
        q = p ** n
        for _ in range(args.count):
            kd = random_normal_cyclic_kummer(rng, p, n)
            checked["models"] += 1
            rep = predict_genus(GlobalModel(kd))
            if rep.deg_R != 2 * (q - 1) or rep.g_Y != 0:
                failures.append(
                    f"accepted model {kd.factors[0]} over p^n={q} has deg_R={rep.deg_R}, g={rep.g_Y}"
                )
            for row in rep.per_place:
                model = normalize_local_model(kd, row["place"])
                checked["oracle_places"] += 1
                if oracle_multiplicity(model) != row["multiplicity"]:
                    failures.append(
                        f"oracle mismatch at {row['place']} for {kd.factors[0]} (p^n={q})"
                    )
            if n >= 2:
                checked["devissage"] += 1
                dev = devissage_check(kd, rng.randrange(1, n), include_infinity=True,
                                      with_oracle=True)
                if not (dev.equal and dev.oracle_agrees):
                    failures.append(f"devissage failed for {kd.factors[0]} (p^n={q})")
            if q >= 2:
                col = random_integral_column(rng, p, n)
                checked["columns"] += 1
                c = cocycle_from_column(PGroup(p, (n,)), col)
                one = c.group.elt(1)
                if [c.entry(c.group.elt(i), one) for i in range(1, q)] != col:
                    failures.append(f"column round trip failed (p^n={q})")
                # read back as a covering file brings it: no Kummer form, so _reconstruct runs
                raw = Cocycle.from_entries(c.group, {(m, k): a for m, k, a in c.pairs()})
                if not validate(raw).ok:
                    failures.append(f"rebuilt column table failed validation (p^n={q})")
                try:
                    if forward_decompose(raw)[1] != math.prod(col, start=Poly.one(p)):
                        failures.append(f"decomposed f is not the column product (p^n={q})")
                except UnsupportedDecomposition as exc:
                    failures.append(f"rebuilt column table refused (p^n={q}): {exc}")
            if q <= 9:
                c = random_cyclic_cocycle(rng, p, n)
                phi = random_phi(rng, c.group)
                checked["determinants"] += 1
                if det_M_phi_bruteforce(c, phi) != det_M_phi_formula(c, phi):
                    failures.append(f"determinant identity failed (p^n={q})")
    out = _report_base("fuzz")
    out["seed"] = args.seed
    out["checked"] = checked
    out["failures"] = failures
    if failures:
        raise InternalInvariant("; ".join(failures))
    return out, 0


# rendering -----------------------------------------------------------------

def _render_table(obj, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_render_table(v, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {v}")
    return lines


def count(text: str) -> int:
    """A --count value: an integer of at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def shape(text: str) -> tuple[int, int]:
    """A --pn value "p,n"; argparse reports any other text as an invalid shape value."""
    p, n = map(int, text.split(","))
    return p, n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="muram",
        description="Exact ramification data of inseparable Kummer-type coverings of the line",
    )
    ap.add_argument("--format", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_input(sp):
        sp.add_argument("--input", required=True, help="covering JSON file")

    sp = sub.add_parser("validate", help="check the table invariants of a covering file")
    with_input(sp)

    sp = sub.add_parser("ramify", help="ramification divisor with per-place reports")
    with_input(sp)
    sp.add_argument("--include-infinity", action="store_true")

    sp = sub.add_parser("oracle", help="formula vs module-length oracle at one place")
    with_input(sp)
    sp.add_argument("--place", required=True, help='"infinity" or coefficients "c0,c1,..."')

    sp = sub.add_parser("devissage", help="two-layer factorization identity")
    with_input(sp)
    sp.add_argument("-m", "--layer", type=int, required=True, help="lower-layer exponent")
    sp.add_argument("--include-infinity", action="store_true")
    sp.add_argument("--with-oracle", action="store_true")

    sp = sub.add_parser("gorenstein", help="per-place Gorenstein verdicts and sign table")
    sp.add_argument("--input", help="covering JSON file")
    sp.add_argument("--include-infinity", action="store_true")
    sp.add_argument("--search", action="store_true", help="fuzz for non-Gorenstein places")
    sp.add_argument("--count", type=count, default=100)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("genus", help="genus prediction from the ramification divisor")
    with_input(sp)

    sp = sub.add_parser("regress-gln", help="matrix-space Frobenius-kernel divisor regression")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.add_argument("--gamma", type=int, required=True)

    sp = sub.add_parser("fuzz", help="randomized cross-checks of all invariants")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=count, default=10)
    sp.add_argument(
        "--pn",
        type=shape,
        action="append",
        help='group shape "p,n"; repeatable (default: 2,1 2,2 3,1 3,2)',
    )

    return ap


_HANDLERS = {
    "validate": _cmd_validate,
    "ramify": _cmd_ramify,
    "oracle": _cmd_oracle,
    "devissage": _cmd_devissage,
    "gorenstein": _cmd_gorenstein,
    "genus": _cmd_genus,
    "regress-gln": _cmd_regress_gln,
    "fuzz": _cmd_fuzz,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code 1
        return 0 if exc.code == 0 else 1
    if args.command == "gorenstein" and not args.search and not args.input:
        print("gorenstein needs --input or --search", file=sys.stderr)
        return 1
    try:
        report, code = _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariant as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ModelRejection as exc:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "rejected": type(exc).__name__,
                          "detail": str(exc)}, sort_keys=True))
        return 2
    except ExactArithError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "table":
        print("\n".join(_render_table(report)))
    else:
        print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
