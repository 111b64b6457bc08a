from math import gcd

import numpy as np
import pytest

from agq.curves import (
    CurveFamily,
    curve,
    rational_points,
    rr_basis,
    x_support,
)
from agq.errors import (
    BadCharacteristic,
    EmptyFiber,
    GcdConditionViolated,
    UnsupportedFamily,
)
from agq.fields import AdditiveMap, build_tower
from agq.points import explicit_set, roots_of_unity_set

from .oracles import gf_p_solve, semigroup_gap_count
from .scalar_field import Scalar, field_elements


def fiber_sizes(spec, xs):
    """Number of rational points above each x of the set, in set order."""
    owner, _ = rational_points(spec, xs)
    return np.bincount(owner, minlength=xs.n).tolist()


def test_genus_formulas():
    tw4 = build_tower(2, 2)
    assert curve(CurveFamily.HERMITIAN, tw4).genus == 6  # q(q-1)/2 at q=4
    assert curve(CurveFamily.ELLIPTIC, tw4).genus == 1
    assert curve(CurveFamily.HYPERELLIPTIC, tw4).genus == 2
    tw3 = build_tower(3, 1)
    assert curve(CurveFamily.ARTIN_SCHREIER, tw3, t=2).genus == 1
    tw5 = build_tower(5, 1)
    assert curve(CurveFamily.SEMI_HERMITIAN, tw5).genus == 4


def test_genus_matches_semigroup_gap_count():
    specs = [
        curve(CurveFamily.ELLIPTIC, build_tower(2, 2)),
        curve(CurveFamily.HYPERELLIPTIC, build_tower(2, 2)),
        curve(CurveFamily.HERMITIAN, build_tower(2, 2)),
        curve(CurveFamily.HERMITIAN, build_tower(3, 1)),
        curve(CurveFamily.SEMI_HERMITIAN, build_tower(5, 1)),
        curve(CurveFamily.SEMI_HERMITIAN, build_tower(3, 1)),
        curve(CurveFamily.ARTIN_SCHREIER, build_tower(3, 1), t=2),
        curve(CurveFamily.ARTIN_SCHREIER, build_tower(7, 1), t=2),
        curve(CurveFamily.ARTIN_SCHREIER, build_tower(5, 1), t=3),
    ]
    for spec in specs:
        if gcd(spec.pole_x, spec.pole_y) == 1:
            assert semigroup_gap_count(spec.pole_x, spec.pole_y) == spec.genus, spec


def test_semigroup_5_3():
    assert semigroup_gap_count(5, 3) == 4


def test_curve_preconditions():
    with pytest.raises(BadCharacteristic):
        curve(CurveFamily.ELLIPTIC, build_tower(3, 1))
    with pytest.raises(BadCharacteristic):
        curve(CurveFamily.SEMI_HERMITIAN, build_tower(2, 2))
    with pytest.raises(GcdConditionViolated):
        curve(CurveFamily.ARTIN_SCHREIER, build_tower(2, 2), t=2)  # even q, even t


def test_elliptic_default_constant_matches_field_parity():
    tw8 = build_tower(2, 3)
    assert curve(CurveFamily.ELLIPTIC, tw8).c == tw8.zero_code
    for m in (2, 4):
        tw = build_tower(2, m)
        c = curve(CurveFamily.ELLIPTIC, tw).c
        assert scalar_absolute_trace(Scalar(tw, c)).is_one()
        assert c == next(a.code for a in field_elements(tw) if scalar_absolute_trace(a).is_one())


def test_elliptic_support_size():
    # |U_c| = 2^(2m-1) + 2^m
    spec = curve(CurveFamily.ELLIPTIC, build_tower(2, 2))
    assert x_support(spec).n == 12
    spec8 = curve(CurveFamily.ELLIPTIC, build_tower(2, 3))
    assert x_support(spec8).n == 40


def test_artin_schreier_support_sizes():
    spec = curve(CurveFamily.ARTIN_SCHREIER, build_tower(3, 1), t=2)
    xs = x_support(spec)
    assert xs.n == 5  # s = gcd(4, 8) = 4, plus zero
    for p, m, t in [(7, 1, 2), (5, 1, 3), (2, 2, 5), (2, 3, 3), (3, 2, 5)]:
        tw = build_tower(p, m)
        spec = curve(CurveFamily.ARTIN_SCHREIER, tw, t=t)
        s = gcd(t * (tw.q - 1), (tw.q + 1) * (tw.q - 1))
        assert x_support(spec).n == s + 1, (p, m, t)


def test_semi_hermitian_support():
    spec = curve(CurveFamily.SEMI_HERMITIAN, build_tower(5, 1))
    xs = x_support(spec)
    assert xs.n == 13  # (q^2+1)/2 squares
    assert fiber_sizes(spec, xs) == [5] * 13  # 65 points, q above each x


def test_fiber_sizes():
    tw4 = build_tower(2, 2)
    herm = curve(CurveFamily.HERMITIAN, tw4)
    assert fiber_sizes(herm, explicit_set(tw4, [tw4.zero_code])) == [4]  # kernel of y^4 + y
    ell = curve(CurveFamily.ELLIPTIC, tw4)
    assert set(fiber_sizes(ell, x_support(ell))) == {2}
    tw3 = build_tower(3, 1)
    artin = curve(CurveFamily.ARTIN_SCHREIER, tw3, t=2)
    assert fiber_sizes(artin, explicit_set(tw3, [tw3.zero_code])) == [3]


def test_fiber_table_holds_eight_bytes_per_element():
    """The y^2+y table that x_support reads over GF(2^16) holds int32 codes
    and bounds: at most 8 q^2 + 8 bytes, as the tower's own tables."""
    tw = build_tower(2, 8)
    x_support(curve(CurveFamily.ELLIPTIC, tw))
    order, bounds = tw._fiber_table(AdditiveMap.SQUARE_PLUS_Y)
    assert order.nbytes + bounds.nbytes <= 8 * tw.q2 + 8


def test_fiber_empty_outside_support():
    tw3 = build_tower(3, 1)
    artin = curve(CurveFamily.ARTIN_SCHREIER, tw3, t=2)
    support = set(x_support(artin).codes.tolist())
    outside = next(c for c in range(tw3.q2) if c not in support)
    with pytest.raises(EmptyFiber) as got:
        rational_points(artin, explicit_set(tw3, sorted(support | {outside})))
    assert tw3.format(outside) in str(got.value)


def test_point_count_identities():
    # total affine points = known curve counts minus the place at infinity
    tw4 = build_tower(2, 2)
    ell = curve(CurveFamily.ELLIPTIC, tw4)
    assert len(rational_points(ell, x_support(ell))[0]) == 2 ** 4 + 2 * 2 ** 2  # 24
    herm = curve(CurveFamily.HERMITIAN, tw4)
    full = x_support(herm)
    assert len(rational_points(herm, full)[0]) == 4 ** 3  # q^3
    semi = curve(CurveFamily.SEMI_HERMITIAN, build_tower(5, 1))
    assert len(rational_points(semi, x_support(semi))[0]) == 5 * 13  # q(q^2+1)/2


def test_hyperelliptic_full_support():
    tw4 = build_tower(2, 2)
    hyp = curve(CurveFamily.HYPERELLIPTIC, tw4)
    assert len(rational_points(hyp, x_support(hyp))[0]) == 2 * 16  # 2q^2 affine points


def test_fixed_support_families_reject_a_selector():
    tw = build_tower(3, 1)
    for spec in (curve(CurveFamily.SEMI_HERMITIAN, tw), curve(CurveFamily.ARTIN_SCHREIER, tw, t=2)):
        with pytest.raises(UnsupportedFamily):
            x_support(spec, roots_of_unity_set(tw, 3))


def test_rr_basis_hermitian_q4_k9():
    spec = curve(CurveFamily.HERMITIAN, build_tower(2, 2))
    basis = rr_basis(spec, 9)
    # semigroup <4,5> elements <= 8: {0, 4, 5, 8} -> 1, x, y, x^2
    assert basis == ((0, 0), (1, 0), (0, 1), (2, 0))


def test_rr_basis_elliptic_k4():
    spec = curve(CurveFamily.ELLIPTIC, build_tower(2, 2))
    basis = rr_basis(spec, 4)
    assert basis == ((0, 0), (1, 0), (0, 1))
    # k-1 = 3 >= 2g-1: dimension k - g
    assert len(basis) == 4 - spec.genus


def test_rr_basis_monotone():
    spec = curve(CurveFamily.HERMITIAN, build_tower(2, 2))
    prev = set()
    prev_count = 0
    for k in range(1, 30):
        basis = set(rr_basis(spec, k))
        assert prev <= basis
        assert len(basis) - prev_count in (0, 1)
        prev, prev_count = basis, len(basis)


def test_basis_monomials_finite_on_all_points():
    # every basis monomial evaluates without poles on every rational point
    tw = build_tower(3, 1)
    spec = curve(CurveFamily.ARTIN_SCHREIER, tw, t=2)
    xs = x_support(spec)
    owner, y = rational_points(spec, xs)
    for (i, j) in rr_basis(spec, 8):
        for x0, y0 in zip(xs.codes[owner].tolist(), y.tolist()):
            _ = (Scalar(tw, x0) ** i) * (Scalar(tw, y0) ** j)  # always defined


def test_fiber_point_order_deterministic():
    tw = build_tower(2, 2)
    spec = curve(CurveFamily.HERMITIAN, tw)
    a = rational_points(spec, x_support(spec))
    b = rational_points(spec, x_support(spec))
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


def scalar_absolute_trace(el):
    acc = cur = el
    for _ in range(2 * el.tower.m - 1):
        cur = cur ** el.tower.p
        acc = acc + cur
    return acc


def scalar_x_support(spec):
    """Oracle: the admissible x codes by a Scalar comprehension."""
    tower, q = spec.tower, spec.tower.q
    if spec.family is CurveFamily.ELLIPTIC:
        keep = lambda a: scalar_absolute_trace(a ** 3 + Scalar(tower, spec.c)).is_zero()
    elif spec.family is CurveFamily.ARTIN_SCHREIER:
        keep = lambda a: (a ** spec.t).relative_trace().is_zero()
    elif spec.family is CurveFamily.SEMI_HERMITIAN:
        keep = lambda a: a.is_zero() or (a ** ((tower.q2 - 1) // 2)).is_one()  # the squares
    else:
        keep = lambda a: True
    return [a.code for a in field_elements(tower) if keep(a)]


def scalar_fiber(spec, x0):
    """Oracle: the additive map and right-hand side of the fiber above x0."""
    q = spec.tower.q
    if spec.family is CurveFamily.ELLIPTIC:
        return AdditiveMap.SQUARE_PLUS_Y, x0 ** 3 + Scalar(x0.tower, spec.c)
    if spec.family is CurveFamily.HYPERELLIPTIC:
        return AdditiveMap.SQUARE_PLUS_Y, x0 ** (q + 1)
    if spec.family is CurveFamily.HERMITIAN:
        return AdditiveMap.FROB_PLUS_Y, x0 ** (q + 1)
    if spec.family is CurveFamily.SEMI_HERMITIAN:
        return AdditiveMap.FROB_PLUS_Y, x0 ** ((q + 1) // 2)
    return AdditiveMap.FROB_MINUS_Y, x0 ** spec.t


def curve_specs():
    """Every curve family except the line, over GF(4) .. GF(64), with every
    Artin-Schreier exponent t <= 2q + 1 the family admits."""
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]:
        tower = build_tower(p, m)
        if p == 2:
            families = [CurveFamily.HERMITIAN, CurveFamily.ELLIPTIC, CurveFamily.HYPERELLIPTIC]
        else:
            families = [CurveFamily.HERMITIAN, CurveFamily.SEMI_HERMITIAN]
        for family in families:
            yield curve(family, tower)
        for t in range(1, 2 * tower.q + 2):
            try:
                yield curve(CurveFamily.ARTIN_SCHREIER, tower, t=t)
            except GcdConditionViolated:
                pass


def test_x_support_and_fibers_match_scalar_oracle():
    """x_support equals the Scalar comprehension, every fiber above it
    equals the GF(p) elimination's, and every x outside it has an empty fiber."""
    families = set()
    for spec in curve_specs():
        tower = spec.tower
        xs = x_support(spec)
        assert xs.codes.tolist() == scalar_x_support(spec), spec.label()
        owner, y = rational_points(spec, xs)
        fibers = [
            gf_p_solve(tower, *scalar_fiber(spec, Scalar(tower, x))) for x in xs.codes.tolist()
        ]
        assert owner.tolist() == [i for i, ys in enumerate(fibers) for _ in ys], spec.label()
        assert y.tolist() == [c for ys in fibers for c in ys], spec.label()
        assert len(set(map(len, fibers))) == 1 and fibers[0], spec.label()  # full fibers
        inside = set(xs.codes.tolist())
        for x in (el for el in field_elements(tower) if el.code not in inside):
            assert gf_p_solve(tower, *scalar_fiber(spec, x)) == [], (spec.label(), x)
        families.add(spec.family)
    assert len(families) == 5


# every tower in the moduli table with q^2 <= 4096
ORACLE_TOWERS = [(2, m) for m in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)] + [
    (p, 1) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
]

# (genus, pole_x, pole_y) of each family from q and t: the closed forms of the
# theory, against which CurveSpec's reading of its equation is checked
CLOSED_FORM_POLES = {
    CurveFamily.ELLIPTIC: lambda q, t: (1, 2, 3),
    CurveFamily.HYPERELLIPTIC: lambda q, t: (q // 2, 2, q + 1),
    CurveFamily.HERMITIAN: lambda q, t: (q * (q - 1) // 2, q, q + 1),
    CurveFamily.SEMI_HERMITIAN: lambda q, t: ((q - 1) ** 2 // 4, q, (q + 1) // 2),
    CurveFamily.ARTIN_SCHREIER: lambda q, t: ((q - 1) * (t - 1) // 2, q, t),
}


def closed_form_support(spec):
    """Oracle: the admissible x codes by the per-family rules of the theory,
    vectorized over the field.  Every x for the hyperelliptic and Hermitian
    curves, the squares for the half-exponent one, absolute trace zero of
    x^3 + c on the elliptic curve and GF(q^2)/GF(q) trace zero of x^t on the
    Artin-Schreier ones."""
    tower, family = spec.tower, spec.family
    x = np.arange(tower.q2)
    if family in (CurveFamily.HYPERELLIPTIC, CurveFamily.HERMITIAN):
        return x
    if family is CurveFamily.SEMI_HERMITIAN:
        return x[(x % 2 == 0) | (x == tower.zero_code)]  # even logs, and zero
    if family is CurveFamily.ELLIPTIC:
        acc = cur = tower.vadd(tower.vpow(x, 3), spec.c)
        for _ in range(2 * tower.m - 1):
            cur = tower.vpow(cur, 2)
            acc = tower.vadd(acc, cur)
        return x[acc == tower.zero_code]
    rhs = tower.vpow(x, spec.t)
    return x[tower.vadd(rhs, tower.vfrob(rhs)) == tower.zero_code]


def test_equation_rule_matches_closed_forms():
    """Over every tower with q^2 <= 4096, for every family and every
    Artin-Schreier t in 1..q+1 the family admits (the scan's range, and t = 1):
    the x-support read from the fibers equals the closed-form rule, every fiber
    above it has pole_x points, and genus and pole orders equal the old table."""
    curves = 0
    for p, m in ORACLE_TOWERS:
        tower = build_tower(p, m)
        q = tower.q
        if p == 2:
            families = [CurveFamily.HERMITIAN, CurveFamily.ELLIPTIC, CurveFamily.HYPERELLIPTIC]
        else:
            families = [CurveFamily.HERMITIAN, CurveFamily.SEMI_HERMITIAN]
        specs = [curve(family, tower) for family in families]
        for t in range(1, q + 2):
            try:
                specs.append(curve(CurveFamily.ARTIN_SCHREIER, tower, t=t))
            except GcdConditionViolated:
                pass
        for spec in specs:
            want = CLOSED_FORM_POLES[spec.family](q, spec.t)
            assert (spec.genus, spec.pole_x, spec.pole_y) == want, spec.label()
            xs = x_support(spec)
            assert np.array_equal(xs.codes, closed_form_support(spec)), (spec.label(), p, m)
            owner, _ = rational_points(spec, xs)
            assert (np.bincount(owner, minlength=xs.n) == spec.pole_x).all(), (spec.label(), p, m)
        curves += len(specs)
    assert curves == 534
