from itertools import product

import pytest

from muram import pgroup
from muram.errors import GroupMismatch
from muram.pgroup import MAX_ORDER, PGroup, sigma, subgroup_generated

SMALL_GROUPS = [
    PGroup(2, (1,)),
    PGroup(2, (2,)),
    PGroup(2, (3,)),
    PGroup(2, (2, 1)),
    PGroup(2, (2, 2)),
    PGroup(3, (1,)),
    PGroup(3, (2,)),
    PGroup(3, (1, 1)),
    PGroup(3, (2, 2)),  # order 81
]


def test_rep_examples():
    z4 = PGroup(2, (2,))
    assert z4.elt(3).rep() == (3,)
    assert z4.elt(0).rep() == (0,)
    g = PGroup(2, (2, 1))
    assert g.elt((3, 1)).rep() == (3, 1)


def test_rep_reduces():
    z4 = PGroup(2, (2,))
    assert z4.elt(7).rep() == (3,)
    assert z4.elt(-1).rep() == (3,)


def test_sigma_examples():
    z3 = PGroup(3, (1,))
    assert sigma(z3.elt(2), z3.elt(2)) == (1,)
    z4 = PGroup(2, (2,))
    assert sigma(z4.elt(3), z4.elt(3)) == (1,)
    for g in SMALL_GROUPS:
        j = g.elt(tuple(1 for _ in g.exponents))
        assert sigma(g.zero(), j) == (0,) * g.rank


def test_sigma_mismatch():
    with pytest.raises(GroupMismatch):
        sigma(PGroup(2, (1,)).elt(1), PGroup(2, (2,)).elt(1))


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_sigma_symmetric_and_binary(group):
    for i in group.elements():
        for j in group.elements():
            s = sigma(i, j)
            assert s == sigma(j, i)
            assert all(b in (0, 1) for b in s)


@pytest.mark.parametrize("group", [g for g in SMALL_GROUPS if g.order <= 81], ids=str)
def test_sigma_cocycle_identity(group):
    # sigma(l,m) + sigma(l+m,n) == sigma(m,n) + sigma(l,m+n) componentwise
    elements = list(group.elements())
    for l in elements:
        for m in elements:
            slm = sigma(l, m)
            lm = l + m
            for n in elements:
                lhs = tuple(a + b for a, b in zip(slm, sigma(lm, n)))
                rhs = tuple(a + b for a, b in zip(sigma(m, n), sigma(l, m + n)))
                assert lhs == rhs


def test_subgroup_generated_examples():
    z4 = PGroup(2, (2,))
    assert subgroup_generated(z4, []).members == (z4.zero(),)
    assert [g.rep() for g in subgroup_generated(z4, [z4.elt(2)])] == [(0,), (2,)]
    g = PGroup(2, (2, 1))
    got = subgroup_generated(g, [g.elt((2, 1))])
    # brute-force closure of a single generator
    expected = {g.zero(), g.elt((2, 1))}
    assert set(got) == expected


@pytest.mark.parametrize("group", [g for g in SMALL_GROUPS if g.order <= 16], ids=str)
def test_lagrange(group):
    elements = list(group.elements())
    for a in elements:
        for b in elements:
            sub = subgroup_generated(group, [a, b])
            assert group.order % sub.order == 0


def test_subgroup_closure_holds():
    g = PGroup(3, (2,))
    sub = subgroup_generated(g, [g.elt(3)])
    for a in sub:
        for b in sub:
            assert a + b in sub
            assert -a in sub


def test_order_bound():
    with pytest.raises(ValueError):
        PGroup(2, (17,))  # 2^17 > 2^16


def test_exponent_ordering_enforced():
    with pytest.raises(ValueError):
        PGroup(2, (1, 2))


def test_canonical_element_order():
    g = PGroup(2, (1, 1))
    assert [e.rep() for e in g.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("exponents", [(1,), ()], ids=["cyclic", "trivial"])
def test_huge_characteristic_refused_before_trial_division(monkeypatch, exponents):
    def trial_division(p):
        raise AssertionError(f"trial division of {p} ran")

    monkeypatch.setattr(pgroup, "_check_prime", trial_division)
    with pytest.raises(ValueError, match=f"characteristic 1000000000000000003 exceeds {MAX_ORDER}"):
        PGroup(1000000000000000003, exponents)


# interned elements ------------------------------------------------------------

def test_elements_are_interned_per_group():
    g = PGroup(2, (2, 1))
    assert g.elt((3, 1)) is g.elt((3, 1))
    assert g.elt((-1, 3)) is g.elt((3, 1))
    assert g.zero() is g.elt((0, 0))
    assert list(g.elements()) == [g.elt(r) for r in [(a, b) for a in range(4) for b in range(2)]]
    assert all(m is g.elt(m.residues) for m in g.elements())
    a, b = g.elt((3, 1)), g.elt((2, 1))
    assert a + b is g.elt((1, 0)) and a - b is g.elt((1, 0)) and -a is g.elt((1, 1))


def test_elements_of_equal_groups_compare_by_value():
    g, h = PGroup(3, (2,)), PGroup(3, (2,))
    assert g is not h and g == h and hash(g) == hash(h)
    for m, n in zip(g.elements(), h.elements()):
        assert m is not n and m == n and hash(m) == hash(n)
    assert g.elt(4) + h.elt(7) == g.elt(2)
    assert g.elt(1) != PGroup(3, (1,)).elt(1)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_element_hash_is_the_hash_of_group_and_residues(group):
    assert hash(group) == hash((group.p, group.exponents))
    for m in group.elements():
        assert hash(m) == hash((m.group, m.residues))


def test_mixed_operands_still_refused():
    for left, right in [
        ((2, (1,)), (2, (2,))),
        ((2, (2,)), (2, (1, 1))),  # both of order 4
        ((3, (1,)), (2, (1,))),
        ((2, (2, 1)), (3, (1, 1))),
    ]:
        a, b = (g.elt((1,) * g.rank) for g in (PGroup(*left), PGroup(*right)))
        for op in (lambda: a + b, lambda: a - b, lambda: sigma(a, b),
                   lambda: b + a, lambda: b - a, lambda: sigma(b, a)):
            with pytest.raises(GroupMismatch):
                op()
        for op in (lambda: a + 1, lambda: a - (1,), lambda: sigma(a, 1)):
            with pytest.raises(TypeError):
                op()


# residue lookup on cyclic groups, tuple path on products -----------------------

# (p, invariant factor exponents): cyclic of order 2, 3, 4, 5, 8, 9, 25, 27, 32
# and 256, then Z/4 x Z/2 and Z/9 x Z/3 on the tuple path
ARITHMETIC_GROUPS = [(2, (1,)), (3, (1,)), (2, (2,)), (5, (1,)), (2, (3,)), (3, (2,)),
                     (5, (2,)), (3, (3,)), (2, (5,)), (2, (8,)), (2, (2, 1)), (3, (2, 1))]


@pytest.mark.parametrize("p, exponents", ARITHMETIC_GROUPS, ids=str)
def test_arithmetic_is_the_componentwise_residue_formula(p, exponents):
    """On every pair of a freshly built group, so that results are met both
    before and after they are first interned."""
    group = PGroup(p, exponents)
    orders = group.factor_orders
    all_residues = list(product(*(range(q) for q in orders)))
    for r in all_residues:
        m = group.elt(r)
        for s in all_residues:
            n = group.elt(s)
            total, diff = m + n, m - n
            assert total.residues == tuple((a + b) % q for a, b, q in zip(r, s, orders))
            assert diff.residues == tuple((a - b) % q for a, b, q in zip(r, s, orders))
            assert total is group.elt(total.residues) and diff is group.elt(diff.residues)
        neg = -m
        assert neg.residues == tuple(-a % q for a, q in zip(r, orders))
        assert neg is group.elt(neg.residues)
    elements = list(group.elements())
    assert [m.residues for m in elements] == all_residues
    assert all(m is group.elt(m.residues) for m in elements)


def test_elements_interns_what_arithmetic_has_not():
    group = PGroup(3, (3,))
    seen = [group.elt(4) + group.elt(5), -group.elt(1), group.elt(2) - group.elt(7)]
    elements = list(group.elements())
    assert [m.residues for m in elements] == [(r,) for r in range(27)]
    assert elements[9] is seen[0] and elements[26] is seen[1] and elements[22] is seen[2]


@pytest.mark.parametrize("p, n, r, s", [(2, 4, 5, 7), (3, 2, 5, 6)], ids=["Z/16", "Z/9"])
def test_cyclic_arithmetic_interns_a_new_residue_once(monkeypatch, p, n, r, s):
    """A result not yet interned goes through _intern once; after that the
    operators read it off the residue list (Z/9 wraps around)."""
    calls = []
    intern = PGroup._intern

    def spy(group, residues):
        calls.append(residues)
        return intern(group, residues)

    monkeypatch.setattr(PGroup, "_intern", spy)
    group = PGroup(p, (n,))
    q = group.order
    a, b = group.elt(r), group.elt(s)
    calls.clear()
    results = [a + b, a - b, -a]
    new = [((r + s) % q,), ((r - s) % q,), (-r % q,)]
    assert [m.residues for m in results] == new and calls == new
    calls.clear()
    again = [a + b, a - b, -a]
    assert all(m is n for m, n in zip(again, results)) and calls == []
    assert all(m is group.elt(m.residues) for m in results)


@pytest.mark.parametrize("exponents", [(2,), (2, 1), (1, 1)], ids=str)
def test_equal_groups_mix_into_the_left_operands_group(exponents):
    g, h = PGroup(3, exponents), PGroup(3, exponents)
    for m in g.elements():
        for n in h.elements():
            for left, right in ((m, n), (n, m)):
                total, diff = left + right, left - right
                assert total.group is left.group and diff.group is left.group
                assert total is left.group.elt(total.residues)
                assert diff is left.group.elt(diff.residues)
                assert total == right.group.elt(total.residues)


@pytest.mark.parametrize("group", [PGroup(2, (2, 1)), PGroup(3, (2, 1))], ids=str)
def test_sigma_is_the_componentwise_carry(group):
    for a in group.elements():
        for b in group.elements():
            assert sigma(a, b) == tuple(
                (x + y) // q for x, y, q in zip(a.residues, b.residues, group.factor_orders)
            )
            assert (a + b).residues == tuple(
                (x + y) % q for x, y, q in zip(a.residues, b.residues, group.factor_orders)
            )
