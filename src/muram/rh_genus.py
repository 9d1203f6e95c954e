"""Global assembly over the projective line: degrees and the genus formula.

A global model is affine covering data plus chart degrees at infinity
(canonical unless overridden).  Its base X is the projective line, of
genus 0, so the predicted genus solves

    2 g(Y) - 2 = |G| (2 g(X) - 2) + deg(R) = deg(R) - 2 |G|

from the full ramification divisor, both charts included.  Hypotheses
are verified first: the covering must be integral (no chart equation of
its Kummer form a p-th power, for Kummer data and raw cyclic tables
alike), every place normal-certified, and every place Gorenstein;
failures are collected into one HypothesisFailure instead of a partial
answer.  The Kummer form is read before any of them, so a raw cyclic
table that does not decompose is refused as ramify refuses it, with
UnsupportedDecomposition, whether or not chart degrees are given.  A
grading of rank >= 2 is never normal: K = F_p(x) has [K : K^p] = p, so
the roots its chart equations adjoin lie in K^{1/p^N} of degree
p^N = max q_k, while its generic fibre has dimension |G| > p^N over K
and so is not a field.  It fails the normality hypothesis before
anything is computed.  A non-integral genus is reported as a flag,
never rounded.  A negative genus is an internal invariant violation:
the hypothesis checks should have rejected the model.

The chart at infinity is a view over the affine table, the two charts
must glue into an integral model (check_chart_consistency), and every
hypothesis is read off entry valuations, so no dense table is built.
Gorenstein verdicts come from gorenstein_at, on the affine table at a
finite place and on the chart at infinity at u = 0; a table with a
potential there (Kummer data, a Cocycle whose Kummer form is known, or
the chart over either) has its candidate anti-diagonals picked by the
sum rule first (see gorenstein).

Degrees are computed over the prime field; residue fields of points
over a place are the place's own residue field (finite fields admit no
inseparable extensions), so the degree agrees with the geometric count
after base change to the algebraic closure.  The genus identity itself
is a statement about the base-changed curve; reports carry a note to
that effect.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .covering import (
    InfinityChart,
    KummerData,
    canonical_infinity_degrees,
    kummer_form,
)
from .errors import HypothesisFailure, InternalInvariant, ModelRejection
from .fppoly import is_pth_power
from .gorenstein import gorenstein_at
from .ramification import ramification_divisor

BASE_FIELD_NOTE = (
    "degrees computed over the prime field; the genus identity refers to "
    "the curve after base change to the algebraic closure"
)


class GlobalModel(Record):
    """Affine covering data plus the glue needed for global questions.

    Its Kummer form is decided on first use and kept (a table that does
    not decompose raises each time); the chart degrees, the integrality
    check and the ramification divisor read it, so a raw cyclic table is
    decomposed once.  The chart at infinity is kept the same way (a
    refused chart raises each time), so the chart check and the Gorenstein
    verdict at infinity share one view and one u-potential.  Both are read
    off the fields, which must not change after first use.  The base is
    the projective line, so there is no base genus to give.
    """

    _fields = ("covering", "infinity_degrees")  # covering: Cocycle | KummerData
    infinity_degrees = None

    @cached_property
    def kummer(self) -> KummerData | None:
        """kummer_form of the covering: None for a raw product table."""
        return kummer_form(self.covering)

    def infinity_chart(self) -> InfinityChart:
        """At the given chart degrees, else the canonical ones of the Kummer
        form; built on first use and kept, as kummer is."""
        return self._chart

    @cached_property
    def _chart(self) -> InfinityChart:
        degrees = self.infinity_degrees
        if degrees is None and self.kummer is not None:
            degrees = canonical_infinity_degrees(self.kummer)
        return InfinityChart(self.covering, degrees)

    def ramification_divisor(self, include_infinity: bool = True):
        """ramification_divisor of the Kummer form, or of a raw product table."""
        kd = self.kummer
        return ramification_divisor(
            self.covering if kd is None else kd, include_infinity, self.infinity_degrees
        )


def check_chart_consistency(gm: GlobalModel) -> None:
    """The two charts glue into an integral model: the affine table is
    integral (check_integral), every element has a chart degree, and
    every entry has a nonnegative u-exponent at infinity.  Raises what
    building both dense tables would raise, at the same first pair.  A
    raw product table's chart at infinity is left to its ramification
    divisor, which checks it."""
    gm.covering.check_integral()
    if gm.kummer is not None:
        gm.infinity_chart().check_integral()


def gorenstein_places(gm: GlobalModel, places):
    """(verdict, witness) per place: gorenstein_at on the affine table at
    a finite place, and on the chart at infinity at u = 0 at infinity."""
    for v in places:
        table = gm.covering
        if v.is_infinity:
            table = gm.infinity_chart()
            v = table.u_place
        yield gorenstein_at(table, v)


class GenusReport(Record):
    _fields = ("group_order", "deg_R", "divisor", "rhs", "g_Y", "non_integer", "per_place",
               "notes")  # rhs: deg R - 2|G|


def total_ram_degree(gm: GlobalModel):
    """Degree of the full ramification divisor, infinity included."""
    divisor, reports = gm.ramification_divisor()
    return divisor.degree(), divisor, reports


def predict_genus(gm: GlobalModel) -> GenusReport:
    """Solve the genus from the degree of the ramification divisor.

    Collects hypothesis failures (integrality, normality at every place
    of both charts, Gorenstein everywhere) into HypothesisFailure.  A
    grading of rank >= 2 fails normality outright (see the module
    docstring); ranks 0 and 1 are certified place by place.  A raw table
    that does not decompose is refused before any of them, as ramify
    refuses it (UnsupportedDecomposition).
    """
    cov = gm.covering
    group = cov.group
    failures = []
    notes = [BASE_FIELD_NOTE]

    kd = gm.kummer
    for f in kd.factors if kd is not None else ():
        if is_pth_power(f):
            failures.append(("integrality", f"chart equation {f} is a p-th power"))
    if group.rank >= 2:
        q_max = max(group.factor_orders)
        failures.append(("normality", f"the generic fibre of a {group} grading has dimension "
                         f"|G| = {group.order} over K = F_{group.p}(x), but K^(1/{q_max}) has "
                         f"degree {q_max}: it is not a field, so the covering is not normal"))
    if failures:
        raise HypothesisFailure(failures)
    try:
        check_chart_consistency(gm)
    except (ModelRejection, ValueError) as exc:
        raise HypothesisFailure([("charts", str(exc))])

    try:
        deg_R, divisor, reports = total_ram_degree(gm)
    except ModelRejection as exc:
        raise HypothesisFailure([(type(exc).__name__, str(exc))])

    per_place = []
    verdicts = gorenstein_places(gm, [r.place for r in reports])
    for r, (ok, witness) in zip(reports, verdicts):
        if not ok:
            failures.append(("gorenstein", f"no unit anti-diagonal at {r.place}"))
        per_place.append(
            {
                "place": r.place,
                "multiplicity": r.multiplicity,
                "stabilizer_order": r.stabilizer.order,
                "totally_ramified": r.totally_ramified,
                "torsor": r.torsor,
                "normality": r.normality,
                "gorenstein": ok,
                "witness": witness,
            }
        )
    if failures:
        raise HypothesisFailure(failures)

    rhs = deg_R - 2 * group.order
    non_integer = rhs % 2 != 0
    g_Y = None if non_integer else (rhs + 2) // 2
    if g_Y is not None and g_Y < 0:
        raise InternalInvariant(
            f"negative predicted genus {g_Y}; hypothesis checks should have rejected this model"
        )
    return GenusReport(
        group_order=group.order,
        deg_R=deg_R,
        divisor=divisor,
        rhs=rhs,
        g_Y=g_Y,
        non_integer=non_integer,
        per_place=per_place,
        notes=notes,
    )
