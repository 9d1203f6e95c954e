"""The layers the benchmark traces, their metrics, and what each should move.

``*.count`` is a call count, ``*.self_s`` the time inside a probe minus
the time inside the probes it called, ``*.total_s`` the time inside it
including them.

A layer is a module under src/muram/.  ``divisors``, ``errors`` and
``randgen`` are not timed; their work is charged to the caller.

PROBES lists (layer, target, stem, hot, observer): ``target`` is a
module-level function or ``Class.method`` of ``muram.<layer>``; the span
name is ``<layer>.<stem>``.  Hot probes count calls and self time but
record no spans.  Polynomial and group dunders are probed so that
arithmetic is charged to fppoly and pgroup, not to whoever called it.
"""

from __future__ import annotations

import statistics


def _gcd_useful(tracer, args, result, parent):
    if not result.is_one():
        tracer.bump("fppoly.gcd.useful")


def _entries_built(tracer, args, result, parent):
    tracer.bump("covering.entries_built", result.group.order ** 2)


def _pivot(tracer, args, result, parent):
    if parent == "snf_oracle.snf_length":
        tracer.bump("snf_oracle.pivots")
        if len(args[0].comps) == 1:
            tracer.bump("snf_oracle.pivots_monomial")


HOT = True
SPAN = False

PROBES = [
    ("fppoly", "Poly.__init__", "poly_new", HOT, None),
    ("fppoly", "Poly.__add__", "add", HOT, None),
    ("fppoly", "Poly.__sub__", "sub", HOT, None),
    ("fppoly", "Poly.__neg__", "neg", HOT, None),
    ("fppoly", "Poly.__mul__", "mul", HOT, None),
    ("fppoly", "Poly.__pow__", "pow", HOT, None),
    ("fppoly", "Poly.__divmod__", "divmod", HOT, None),
    ("fppoly", "Poly.derivative", "derivative", HOT, None),
    ("fppoly", "Poly.reversed_coeffs", "reversed_coeffs", HOT, None),
    ("fppoly", "RatFun.__init__", "ratfun_new", HOT, None),
    ("fppoly", "RatFun.__add__", "ratfun_add", HOT, None),
    ("fppoly", "RatFun.__sub__", "ratfun_sub", HOT, None),
    ("fppoly", "RatFun.__mul__", "ratfun_mul", HOT, None),
    ("fppoly", "RatFun.__truediv__", "ratfun_div", HOT, None),
    ("fppoly", "RatFun.inverse", "ratfun_inverse", HOT, None),
    ("fppoly", "poly_gcd", "gcd", HOT, _gcd_useful),
    ("fppoly", "powmod", "powmod", HOT, None),
    ("fppoly", "poly_valuation", "poly_valuation", HOT, None),
    ("fppoly", "valuation", "valuation", HOT, None),
    ("fppoly", "is_irreducible", "is_irreducible", HOT, None),
    ("fppoly", "factor", "factor", SPAN, None),
    ("pgroup", "GElt.__init__", "gelt_new", HOT, None),
    ("pgroup", "GElt.__add__", "gelt_add", HOT, None),
    ("pgroup", "GElt.__sub__", "gelt_sub", HOT, None),
    ("pgroup", "GElt.__neg__", "gelt_neg", HOT, None),
    ("pgroup", "PGroup.elt", "elt", HOT, None),
    ("pgroup", "sigma", "sigma", HOT, None),
    ("pgroup", "subgroup_generated", "subgroup_generated", SPAN, None),
    ("algebra", "AlgebraElt.__init__", "elt_new", HOT, None),
    ("algebra", "AlgebraElt.__add__", "add", HOT, None),
    ("algebra", "AlgebraElt.__neg__", "neg", HOT, None),
    ("algebra", "AlgebraElt.mul", "mul", HOT, None),
    ("algebra", "solve_linear", "solve_linear", SPAN, None),
    ("algebra", "algebra_inverse", "inverse", SPAN, _pivot),
    ("covering", "Cocycle.__init__", "cocycle_new", SPAN, None),
    ("covering", "KummerData.raw_entry", "raw_entry", HOT, None),
    ("covering", "KummerData.to_cocycle", "to_cocycle", SPAN, _entries_built),
    ("covering", "validate", "validate", SPAN, None),
    ("covering", "cocycle_from_column", "cocycle_from_column", SPAN, _entries_built),
    ("covering", "forward_decompose", "forward_decompose", SPAN, None),
    ("covering", "twist", "twist", SPAN, _entries_built),
    ("covering", "chart_at_infinity", "chart_at_infinity", SPAN, _entries_built),
    ("covering", "torsor_at", "torsor_at", SPAN, None),
    ("covering", "support_places", "support_places", SPAN, None),
    ("ramification", "LocalModel.entry", "local_entry", HOT, None),
    ("ramification", "normalize_local_model", "normalize_local_model", SPAN, None),
    ("ramification", "_normalize", "normalize", SPAN, None),
    ("ramification", "_off_support_normality_sweep", "normality_sweep", SPAN, None),
    ("ramification", "stabilizer_subgroup_at", "stabilizer_subgroup_at", SPAN, None),
    ("ramification", "multiplicity_at", "multiplicity_at", SPAN, None),
    ("ramification", "ramification_divisor", "ramification_divisor", SPAN, None),
    ("ramification", "devissage_check", "devissage_check", SPAN, None),
    ("ramification", "gln_regression", "gln_regression", SPAN, None),
    ("snf_oracle", "build_presentation", "build_presentation", SPAN, None),
    ("snf_oracle", "snf_length", "snf_length", SPAN, None),
    ("snf_oracle", "oracle_multiplicity", "oracle_multiplicity", SPAN, None),
    ("gorenstein", "gorenstein_at", "gorenstein_at", SPAN, None),
    ("gorenstein", "diagonal_coefficients", "diagonal_coefficients", SPAN, None),
    ("gorenstein", "det_M_phi_bruteforce", "det_bruteforce", SPAN, None),
    ("gorenstein", "det_M_phi_formula", "det_formula", SPAN, None),
    ("gorenstein", "derive_sign", "derive_sign", SPAN, None),
    ("gorenstein", "sign_table", "sign_table", SPAN, None),
    ("rh_genus", "GlobalModel.infinity_chart", "infinity_chart", SPAN, None),
    ("rh_genus", "check_chart_consistency", "check_chart_consistency", SPAN, None),
    ("rh_genus", "total_ram_degree", "total_ram_degree", SPAN, None),
    ("rh_genus", "predict_genus", "predict_genus", SPAN, None),
    ("serialize", "covering_from_obj", "covering_from_obj", SPAN, None),
    ("serialize", "covering_to_obj", "covering_to_obj", SPAN, None),
    ("serialize", "divisor_to_obj", "divisor_to_obj", HOT, None),
    ("serialize", "place_to_obj", "place_to_obj", HOT, None),
    ("cli", "_load_covering", "load", SPAN, None),
] + [
    ("cli", f"_cmd_{cmd}", "handler", SPAN, None)
    for cmd in ("validate", "ramify", "oracle", "devissage", "gorenstein", "genus",
                "regress_gln", "fuzz")
] + [
    ("cli", "_gorenstein_search", "handler", SPAN, None),
]

class Aggregate:
    """Read per-layer numbers out of a (merged) Tracer.result()."""

    def __init__(self, result):
        self.stats = result["stats"]
        self.extra = result["extra"]

    def count(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def total_s(self, name):
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(row[1] for name, row in self.stats.items() if name.startswith(prefix)) / 1e9

    def get(self, key, default=0):
        return self.extra.get(key, default)

    def ratio(self, num, den):
        return self.get(num) / den if den else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


# (name, unit, better, value from an Aggregate); the order is the
# per_layer order in BENCHMARK.json.
PER_LAYER = [
    ("fppoly.poly_new.count", "count", "lower", lambda a: a.count("fppoly.poly_new")),
    ("fppoly.mul.count", "count", "lower", lambda a: a.count("fppoly.mul")),
    ("fppoly.divmod.count", "count", "lower", lambda a: a.count("fppoly.divmod")),
    ("fppoly.gcd.count", "count", "lower", lambda a: a.count("fppoly.gcd")),
    ("fppoly.gcd.useful_ratio", "1", "higher",
     lambda a: a.ratio("fppoly.gcd.useful", a.count("fppoly.gcd"))),
    ("fppoly.ratfun_new.count", "count", "lower", lambda a: a.count("fppoly.ratfun_new")),
    ("fppoly.factor.count", "count", "lower", lambda a: a.count("fppoly.factor")),
    ("fppoly.factor.self_s", "s", "lower", lambda a: a.self_s("fppoly.factor")),
    ("fppoly.self_s", "s", "lower", lambda a: a.layer_self_s("fppoly")),
    ("pgroup.gelt_new.count", "count", "lower", lambda a: a.count("pgroup.gelt_new")),
    ("pgroup.sigma.count", "count", "lower", lambda a: a.count("pgroup.sigma")),
    ("pgroup.self_s", "s", "lower", lambda a: a.layer_self_s("pgroup")),
    ("algebra.mul.count", "count", "lower", lambda a: a.count("algebra.mul")),
    ("algebra.inverse.count", "count", "lower", lambda a: a.count("algebra.inverse")),
    ("algebra.inverse.self_s", "s", "lower", lambda a: a.self_s("algebra.inverse")),
    ("algebra.solve_linear.self_s", "s", "lower", lambda a: a.self_s("algebra.solve_linear")),
    ("covering.entries_built.count", "count", "lower", lambda a: a.get("covering.entries_built")),
    ("covering.to_cocycle.count", "count", "lower", lambda a: a.count("covering.to_cocycle")),
    ("covering.to_cocycle.self_s", "s", "lower", lambda a: a.self_s("covering.to_cocycle")),
    ("covering.chart_at_infinity.count", "count", "lower",
     lambda a: a.count("covering.chart_at_infinity")),
    ("covering.chart_at_infinity.self_s", "s", "lower",
     lambda a: a.self_s("covering.chart_at_infinity")),
    ("covering.validate.self_s", "s", "lower", lambda a: a.self_s("covering.validate")),
    ("covering.forward_decompose.self_s", "s", "lower",
     lambda a: a.self_s("covering.forward_decompose")),
    ("covering.support_places.self_s", "s", "lower",
     lambda a: a.self_s("covering.support_places")),
    ("ramification.ramification_divisor.self_s", "s", "lower",
     lambda a: a.self_s("ramification.ramification_divisor")),
    ("ramification.normalize.count", "count", "lower", lambda a: a.count("ramification.normalize")),
    ("ramification.normalize.self_s", "s", "lower", lambda a: a.self_s("ramification.normalize")),
    ("ramification.devissage_check.self_s", "s", "lower",
     lambda a: a.self_s("ramification.devissage_check")),
    ("ramification.stabilizer_subgroup_at.count", "count", "lower",
     lambda a: a.count("ramification.stabilizer_subgroup_at")),
    ("snf_oracle.build_presentation.self_s", "s", "lower",
     lambda a: a.self_s("snf_oracle.build_presentation")),
    ("snf_oracle.snf_length.self_s", "s", "lower", lambda a: a.self_s("snf_oracle.snf_length")),
    ("snf_oracle.pivots.count", "count", "lower", lambda a: a.get("snf_oracle.pivots")),
    ("snf_oracle.pivot_monomial.ratio", "1", "higher",
     lambda a: a.ratio("snf_oracle.pivots_monomial", a.get("snf_oracle.pivots"))),
    ("gorenstein.gorenstein_at.count", "count", "lower",
     lambda a: a.count("gorenstein.gorenstein_at")),
    ("gorenstein.gorenstein_at.self_s", "s", "lower",
     lambda a: a.self_s("gorenstein.gorenstein_at")),
    ("gorenstein.sign_table.count", "count", "lower", lambda a: a.count("gorenstein.sign_table")),
    ("gorenstein.sign_table.self_s", "s", "lower", lambda a: a.self_s("gorenstein.sign_table")),
    ("gorenstein.sign_table.total_s", "s", "lower", lambda a: a.total_s("gorenstein.sign_table")),
    ("gorenstein.det_bruteforce.count", "count", "lower",
     lambda a: a.count("gorenstein.det_bruteforce")),
    ("rh_genus.predict_genus.count", "count", "lower", lambda a: a.count("rh_genus.predict_genus")),
    ("rh_genus.predict_genus.self_s", "s", "lower", lambda a: a.self_s("rh_genus.predict_genus")),
    ("rh_genus.predict_genus.total_s", "s", "lower", lambda a: a.total_s("rh_genus.predict_genus")),
    ("rh_genus.check_chart_consistency.self_s", "s", "lower",
     lambda a: a.self_s("rh_genus.check_chart_consistency")),
    ("rh_genus.infinity_chart.count", "count", "lower",
     lambda a: a.count("rh_genus.infinity_chart")),
    ("serialize.covering_from_obj.self_s", "s", "lower",
     lambda a: a.self_s("serialize.covering_from_obj")),
    ("serialize.report_bytes", "bytes", "lower", lambda a: a.get("serialize.report_bytes")),
    ("cli.import_s", "s", "lower", lambda a: _median(a.get("cli.import_s", []))),
    ("cli.handler.count", "count", "lower", lambda a: a.count("cli.handler")),
    ("cli.handler.self_s", "s", "lower", lambda a: a.self_s("cli.handler")),
    ("cli.process_overhead_ms", "ms", "lower",
     lambda a: _median(a.get("cli.process_overhead_ms", []))),
    ("trace.overhead_ratio", "1", "lower", lambda a: a.get("trace.overhead_ratio")),
]

# Which end-to-end metric each layer's numbers should move, and on which
# workload; a claimed gain in a layer is checked on that row.
LAYER_MAP = {
    "fppoly": (("ops_per_ref", "op_p50_ref"), ("oracle", "corpus")),
    "pgroup": (("ops_per_ref", "op_p90_ref"), ("ladder",)),
    "algebra": (("op_p90_ref", "ops_per_ref"), ("oracle",)),
    "covering": (("ops_per_ref", "op_p90_ref", "peak_rss_mb"), ("ladder", "corpus")),
    "ramification": (("ops_per_ref",), ("corpus",)),
    "snf_oracle": (("op_p90_ref", "ops_per_ref"), ("oracle",)),
    "gorenstein": (("op_p50_ref", "op_p90_ref"), ("cli", "ladder")),
    "rh_genus": (("ops_per_ref", "op_p90_ref"), ("ladder",)),
    "serialize": (("setup_s", "op_p50_ref"), ("cli",)),
    "cli": (("op_p50_ref", "setup_s"), ("cli",)),
}

# Times of probes that some workload never reaches: they read 0 on every
# run of that workload, so they are printed and saved with the run but
# left out of the JSON result; the counts beside them stay in it.
UNGATED = {
    "algebra.inverse.self_s", "algebra.solve_linear.self_s",
    "covering.to_cocycle.self_s", "covering.chart_at_infinity.self_s",
    "covering.validate.self_s", "covering.forward_decompose.self_s",
    "covering.support_places.self_s", "ramification.devissage_check.self_s",
    "snf_oracle.build_presentation.self_s", "snf_oracle.snf_length.self_s",
    "gorenstein.gorenstein_at.self_s", "gorenstein.sign_table.self_s",
    "gorenstein.sign_table.total_s", "rh_genus.predict_genus.self_s",
    "rh_genus.predict_genus.total_s", "rh_genus.check_chart_consistency.self_s",
    "cli.import_s", "cli.handler.self_s", "cli.process_overhead_ms",
}
