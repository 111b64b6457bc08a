from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agq.fields
from agq.errors import (
    CosetSearchExhausted,
    DivisibilityViolated,
    NotNormValue,
    TooManyCosets,
)
from agq.fields import build_tower, norm_preimage
from agq.points import (
    FAMILY_AFFINE_GRID,
    FAMILY_EXPLICIT,
    EvaluationSet,
    affine_grid_set,
    coset_union_set,
    explicit_set,
    local_derivatives,
    roots_of_unity_set,
    twist_vector,
)

from .modulus_search import admissible_towers
from .scalar_field import Scalar, from_int, gen, one, subfield_elements, zero
from .test_fields import seeded_batch


def elements(es):
    """The points of a set as Scalars, in set order."""
    return [Scalar(es.tower, c) for c in es.codes.tolist()]


def field_sum(tower, elements):
    acc = zero(tower)
    for el in elements:
        acc = acc + el
    return acc


def test_roots_of_unity_q13_n25():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    assert es.n == 25
    assert es.codes[-1] == tw.zero_code
    assert es.codes.tolist() == sorted(es.codes.tolist())
    assert es.codes.dtype == np.int32 and not es.codes.flags.writeable
    # all are roots of x^25 - x
    for p in elements(es):
        assert p ** 25 == p


def test_roots_of_unity_full_field():
    tw = build_tower(3, 1)
    es = roots_of_unity_set(tw, 9)
    assert es.n == 9
    assert es.codes.tolist() == list(range(tw.q2))  # t^0 .. t^7, then zero


def test_roots_of_unity_q11_n16():
    tw = build_tower(11, 1)
    assert roots_of_unity_set(tw, 16).n == 16


def test_roots_of_unity_divisibility():
    tw = build_tower(13, 1)
    with pytest.raises(DivisibilityViolated):
        roots_of_unity_set(tw, 26)  # 25 does not divide 168


def test_coset_union_q17():
    tw = build_tower(17, 1)
    es = coset_union_set(tw, 12, 2)
    assert es.n == (2 + 1) * 12 + 1 == 37
    q = tw.q
    for p in elements(es):
        assert p.is_zero() or (p ** 12).in_base_field()


def test_coset_union_t0_matches_roots_of_unity():
    tw = build_tower(17, 1)
    a = coset_union_set(tw, 12, 0)
    b = roots_of_unity_set(tw, 13)
    assert a.codes.tolist() == b.codes.tolist()


def test_coset_union_errors():
    tw = build_tower(17, 1)
    with pytest.raises(TooManyCosets):
        coset_union_set(tw, 12, 8)
    with pytest.raises(DivisibilityViolated):
        coset_union_set(tw, 11, 1)


def test_coset_union_q0_filter():
    # q = 81 = q0^2 with q0 = 9, n = (q-1)/(3+1) = 20: exactly one coset of
    # the order-20 subgroup admits a (q0+1)-th-power leader
    tw = build_tower(3, 4)
    es = coset_union_set(tw, 20, 1, leader_filter=True)
    assert es.n == 41
    (e,) = es.params["leader_exponents"]
    q, q0 = tw.q, 3 ** 2
    leader = gen(tw) ** (e * (q + 1) // 2)  # n1 = gcd(20, 82) = 2
    assert leader.in_base_field()
    assert leader.code % ((q + 1) * (q0 + 1)) == 0  # a (q0+1)-th power in GF(q)
    with pytest.raises(CosetSearchExhausted):
        coset_union_set(tw, 20, 2, leader_filter=True)


def test_coset_union_q0_filter_vacuous_at_q9():
    # q = 9, n = 2: every (q0+1)-th power already lies in the base subgroup,
    # so the leader search must report exhaustion rather than fake a coset
    tw = build_tower(3, 2)
    with pytest.raises(CosetSearchExhausted):
        coset_union_set(tw, 2, 1, leader_filter=True)


def test_coset_leaders_fall_in_distinct_cosets():
    """coset_union_set checks no overlap: its cosets are disjoint by the index
    arithmetic, checked here for every n | q^2-1, every t and both leader rules
    with q^2 <= 4096.  Leader exponent e gives the coset t^(e (q+1)/n1) U_n,
    whose index is e (q+1)/n1 mod (q^2-1)/n; the exponents below (q-1)/n2 have
    distinct indices, so leaders with distinct nonzero residues mod (q-1)/n2
    give cosets distinct from each other and from U_n."""
    sets = 0
    for p, m in admissible_towers():
        tw = build_tower(p, m) if p ** (2 * m) <= 4096 else None
        if tw is None:
            continue
        q = tw.q
        for n in (d for d in range(1, tw.n_units + 1) if tw.n_units % d == 0):
            n1 = gcd(n, q + 1)
            n2 = n // n1
            assert (q - 1) % n2 == 0
            n_cosets = (q - 1) // n2
            assert len({e * ((q + 1) // n1) % (tw.n_units // n) for e in range(n_cosets)}) == n_cosets
            for leader_filter in (False, True):
                for t in range(n_cosets):
                    try:
                        es = coset_union_set(tw, n, t, leader_filter=leader_filter)
                    except CosetSearchExhausted:
                        break  # the leader search is greedy: a larger t exhausts too
                    residues = {e % n_cosets for e in (0, *es.params["leader_exponents"])}
                    assert len(residues) == t + 1, (p, m, n, t)
                    assert not np.count_nonzero(es.codes[1:] == es.codes[:-1]), (p, m, n, t)
                    sets += 1
    assert sets == 7102  # every (field, n, t, rule) whose set builds


def test_affine_grid_q7():
    tw = build_tower(7, 1)
    es = affine_grid_set(tw, 3)
    assert es.n == 21
    assert len(set(es.codes.tolist())) == 21
    # u_i*a + u_j, with u_0 = 0 and then the nonzero u by log, as Scalar sums
    a = Scalar(tw, es.params["anchor_code"])
    us = [zero(tw)] + subfield_elements(tw)[:-1]
    assert es.codes.tolist() == sorted((us[i] * a + us[j]).code for i in range(3) for j in range(7))


def test_affine_grid_line_t1():
    tw = build_tower(7, 1)
    es = affine_grid_set(tw, 1)
    # u_1 = 0: the grid row is GF(q) itself
    assert es.n == 7
    assert all(p.in_base_field() for p in elements(es))


def test_affine_grid_q8_16_points():
    tw = build_tower(2, 3)
    assert affine_grid_set(tw, 2).n == 16


def derivatives(es):
    """local_derivatives as Scalars."""
    return [Scalar(es.tower, c) for c in local_derivatives(es).tolist()]


def test_local_derivative_closed_forms_roots_of_unity():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    der = derivatives(es)
    n_minus_1 = from_int(tw, 24 % 13)
    for p, d in zip(elements(es), der):
        if p.is_zero():
            assert d == -one(tw)  # h'(0) = -1 for h = x^n - x
        else:
            assert d == n_minus_1  # h'(a) = n-1 on the unit roots


def test_local_derivative_closed_form_affine_grid():
    # (a^q - a)^(1-t) h'(alpha_ij) lands in GF(q)* at every grid point
    tw = build_tower(7, 1)
    es = affine_grid_set(tw, 3)
    a = Scalar(tw, es.params["anchor_code"])
    unit = (a.frobenius() - a) ** 2
    assert es.residue_unit() == unit.code
    for d in derivatives(es):
        val = d / unit
        assert not val.is_zero() and val.in_base_field()


def test_twist_vector_c1():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    assert tv.dtype == np.int32 and not tv.flags.writeable
    for v, h in zip(twist_elements(tw, tv), derivatives(es)):
        assert (v ** 14) * h == one(tw)


def test_twist_vector_rejects_ad_hoc_set():
    tw = build_tower(3, 1)
    es = explicit_set(tw, [tw.zero_code, 0, 1])
    with pytest.raises(NotNormValue):
        twist_vector(es)


def test_explicit_set_sorts_codes_and_rejects_repeats():
    tw = build_tower(3, 1)
    es = explicit_set(tw, [tw.zero_code, 5, 1])
    assert es.codes.tolist() == [1, 5, tw.zero_code]  # nonzero by log, zero last
    assert es.codes.dtype == np.int32 and not es.codes.flags.writeable
    with pytest.raises(ValueError):
        explicit_set(tw, [3, tw.zero_code, 3])


def test_twist_vector_affine_grid_default_unit():
    tw = build_tower(7, 1)
    es = affine_grid_set(tw, 3)
    tv = twist_vector(es)
    unit = Scalar(tw, es.residue_unit())
    for v, h in zip(twist_elements(tw, tv), derivatives(es)):
        assert (v ** 8) * h == unit


def test_residue_identity_roots_of_unity_boundary():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    # e = n-1 is the boundary: the sum must NOT vanish
    terms = [(p ** 24) / h for p, h in zip(elements(es), derivatives(es))]
    assert not field_sum(tw, terms).is_zero()


def pairwise_product_derivatives(eval_set):
    """Reference oracle: h'(alpha_i) as the Scalar product over j != i."""
    pts = elements(eval_set)
    out = []
    for i, a in enumerate(pts):
        acc = one(eval_set.tower)
        for j, b in enumerate(pts):
            if i != j:
                acc = acc * (a - b)
        out.append(acc)
    return tuple(out)


def twist_elements(tower, tv):
    return [Scalar(tower, c) for c in tv.tolist()]


def pairwise_twist(eval_set, unit_scalar):
    """Reference oracle for twist_vector: the values norm_preimage(unit / h'), or
    NotNormValue at the first index where unit / h' is zero, undefined or
    outside GF(q)*."""
    values = []
    for i, h in enumerate(pairwise_product_derivatives(eval_set)):
        if h.is_zero():
            raise NotNormValue(i)
        c = unit_scalar / h
        if c.is_zero() or not c.in_base_field():
            raise NotNormValue(i)
        values.append(Scalar(c.tower, norm_preimage(c.tower, c.code)))
    return tuple(values)


def random_point_set(rng, towers, max_n):
    """A set of at most max_n distinct points from one of the four families over
    a tower drawn from towers (p, m), each choice uniform from the numpy
    generator rng.  Half of them lose the zero point, as a hand-built set of the
    same family and parameters, so grids keep their unit scalar."""
    tower = build_tower(*towers[rng.integers(len(towers))])
    q, units = tower.q, tower.n_units
    family = ("roots", "coset", "grid", "explicit")[rng.integers(4)]
    if family == "roots":
        orders = [d for d in range(1, max_n) if units % d == 0]
        es = roots_of_unity_set(tower, orders[rng.integers(len(orders))] + 1)
    elif family == "coset":
        shapes = [
            (n, t)
            for n in range(1, max_n)
            if units % n == 0
            for t in range((q - 1) // (n // gcd(n, q + 1)))
            if (t + 1) * n < max_n
        ]
        es = coset_union_set(tower, *shapes[rng.integers(len(shapes))])
    elif family == "grid":
        es = affine_grid_set(tower, int(rng.integers(1, max(1, min(q, max_n // q)) + 1)))
    else:
        codes = rng.choice(units, size=rng.integers(min(max_n, 24, units + 1)), replace=False)
        es = explicit_set(tower, codes.tolist() + [tower.zero_code])
    if es.n > 2 and rng.integers(2):
        es = EvaluationSet(tower, es.family, es.codes[es.codes != tower.zero_code], es.params)
    return es


@st.composite
def point_sets(draw, towers, max_n):
    """random_point_set from a generator seeded by a hypothesis draw."""
    return random_point_set(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), towers, max_n)


# four Cayley towers (q^2 <= 2^9) and three Zech-only ones, in characteristic 2 and odd
TWIST_TOWERS = [(3, 1), (2, 2), (2, 4), (17, 1), (2, 5), (3, 3), (31, 1)]


@st.composite
def coset_union_sets(draw, towers, max_n):
    """An explicit set of fewer than max_n points over a tower drawn from
    towers: the union of random cosets of a random subgroup mu_d, half of the
    time with zero."""
    tower = build_tower(*draw(st.sampled_from(towers)))
    units = tower.n_units
    d = draw(st.sampled_from([d for d in range(1, max_n) if units % d == 0]))
    step = units // d
    leaders = draw(st.lists(st.integers(0, step - 1), min_size=1, max_size=min(step, (max_n - 1) // d), unique=True))
    codes = [leader + j * step for leader in leaders for j in range(d)]
    return explicit_set(tower, codes + [tower.zero_code] * draw(st.booleans()))


def any_point_sets(max_n):
    """A set of one of the four families, or an explicit union of cosets, over
    a TWIST_TOWERS field."""
    return st.one_of(point_sets(TWIST_TOWERS, max_n), coset_union_sets(TWIST_TOWERS, max_n))


@st.composite
def twist_cases(draw):
    """A point set, one in four with one point repeated, and a gather cap that
    makes blocks of 1 or 7 rows, or the module default."""
    es = draw(any_point_sets(max_n=64))
    if draw(st.integers(0, 3)) == 0:
        codes = es.codes.tolist()
        codes.append(codes[draw(st.integers(0, len(codes) - 1))])
        es = EvaluationSet(es.tower, es.family, codes, es.params)
    rows = draw(st.sampled_from([1, 7, None]))
    nonzero = int(np.count_nonzero(es.codes != es.tower.zero_code))
    cap = agq.fields._GATHER_ENTRIES if rows is None else rows * max(1, nonzero)
    return es, cap


def assert_twist_matches_oracle(es):
    assert derivatives(es) == list(pairwise_product_derivatives(es))
    if es.family == FAMILY_AFFINE_GRID:  # (a^q - a)^(t-1), by Scalar operators
        a = Scalar(es.tower, es.params["anchor_code"])
        assert es.residue_unit() == ((a.frobenius() - a) ** (es.params["t"] - 1)).code
    try:
        want = pairwise_twist(es, Scalar(es.tower, es.residue_unit()))
    except NotNormValue as exc:
        with pytest.raises(NotNormValue) as got:
            twist_vector(es)
        assert got.value.index == exc.index
    else:
        assert tuple(twist_elements(es.tower, twist_vector(es))) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(twist_cases())
def test_twist_log_sums_match_pairwise_product(case):
    """local_derivatives and twist_vector, values or NotNormValue index, equal the
    Scalar pairwise product on all four families, with and without zero,
    whatever the row blocks of the gather."""
    es, cap = case
    with mock.patch.object(agq.fields, "_GATHER_ENTRIES", cap):
        assert_twist_matches_oracle(es)


def brute_force_step(es):
    """Reference oracle: the least s | q^2-1 that maps the set's nonzero codes
    onto themselves under c -> c + s mod q^2-1, by trying every divisor; q^2-1
    for a set with a repeated point or with no nonzero point."""
    units = es.tower.n_units
    codes = es.codes.tolist()
    nonzero = {c for c in codes if c != units}
    if len(set(codes)) < len(codes) or not nonzero:
        return units
    return min(s for s in range(1, units + 1) if units % s == 0 and {(c + s) % units for c in nonzero} == nonzero)


@st.composite
def stabilizer_cases(draw):
    """A point set of any_point_sets as it is, or with one point dropped, one
    foreign point added, one or every point repeated, or zero added or
    dropped.  Every point twice keeps the codes shift-invariant as a list."""
    es = draw(any_point_sets(max_n=128))
    tower, codes = es.tower, es.codes.tolist()
    change = draw(st.sampled_from(["none", "drop", "add", "repeat", "double", "zero"]))
    if change == "drop" and codes:
        codes.pop(draw(st.integers(0, len(codes) - 1)))
    elif change == "add" and len(codes) <= tower.n_units:
        foreign = draw(st.integers(0, tower.n_units))
        while foreign in codes:
            foreign = (foreign + 1) % tower.q2
        codes.append(foreign)
    elif change == "repeat" and codes:
        codes.append(codes[draw(st.integers(0, len(codes) - 1))])
    elif change == "double":
        codes += codes
    elif change == "zero":
        codes = codes[:-1] if codes[-1:] == [tower.zero_code] else codes + [tower.zero_code]
    return EvaluationSet(tower, es.family, codes, es.params)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stabilizer_cases())
def test_stabilizer_step_matches_brute_force(es):
    """The step of the multiplicative stabilizer that local_derivatives reads off
    the codes is the brute-force one, on all four families and on coset
    unions, each as built or one point off."""
    assert agq.fields._stabilizer_step(es.codes.astype(np.int64), es.tower.n_units) == brute_force_step(es)


@pytest.mark.parametrize("p,m,n", [(2, 5, 1024), (2, 8, 258), (251, 1, 251)])
def test_roots_of_unity_closed_form_at_benchmark_scale(p, m, n):
    # h = x^n - x has h'(0) = -1 and h'(a) = n a^(n-1) - 1 = n - 1 at the unit roots
    tw = build_tower(p, m)
    es = roots_of_unity_set(tw, n)
    der = derivatives(es)
    assert der[-1] == -one(tw) and es.codes[-1] == tw.zero_code
    assert set(der[:-1]) == {from_int(tw, (n - 1) % p)}
    tv = twist_vector(es)
    assert all((v ** (tw.q + 1)) * h == one(tw) for v, h in zip(twist_elements(tw, tv), der))


@pytest.mark.parametrize("p,m", [(5, 1), (2, 5), (31, 1)])
def test_repeated_point_has_zero_derivative(p, m):
    # distinct points of GF(q) have every h' in GF(q)*, so with the unit 1 of
    # an explicit set the twist fails first at the repeated point, index 2
    tw = build_tower(p, m)
    pts = [el.code for el in subfield_elements(tw)][:4]
    es = EvaluationSet(tw, FAMILY_EXPLICIT, pts[:3] + pts[2:], {})
    der = derivatives(es)
    assert [d.is_zero() for d in der] == [False, False, True, True, False]
    assert der == list(pairwise_product_derivatives(es))
    assert_twist_matches_oracle(es)
    with pytest.raises(NotNormValue) as got:
        twist_vector(es)
    assert got.value.index == 2


# the seven towers of the original suite, plus GF(2^10), whose vector sums read
# Zech logs rather than a Cayley table
RESIDUE_TOWERS = [(3, 1), (2, 2), (5, 1), (7, 1), (11, 1), (2, 3), (3, 2), (2, 5)]


def random_residue_case(rng):
    """A point set of at least 2 points over a RESIDUE_TOWERS field, and an
    exponent e <= n-2."""
    es = random_point_set(rng, RESIDUE_TOWERS, max_n=128)
    while es.n < 2:
        es = random_point_set(rng, RESIDUE_TOWERS, max_n=128)
    return es, int(rng.integers(es.n - 1))


# 1000 checks as 100 seeded batches of 10: 856 distinct (set, e) pairs
# (hypothesis 6.155).  Most repeats are structured sets over GF(9) and GF(16),
# which have only a few dozen (set, e) pairs each
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_batch(random_residue_case))
def test_residue_identity_property_suite(cases):
    """sum_i alpha_i^e / h'(alpha_i) = 0 for 0 <= e <= n-2, on all four families."""
    for es, e in cases:
        assert_residue_identity(es, e)


def assert_residue_identity(es, e):
    terms = [(p ** e) / h for p, h in zip(elements(es), derivatives(es))]
    assert field_sum(es.tower, terms).is_zero(), (es.tower, es.family, es.n, e)


def test_alpha_power_differences_lie_in_small_subfield():
    # Differences of n-th powers inside GF(q) are fixed by the p^r Frobenius
    # when n*(p^r - 1) = q - 1 (exhaustion over small towers).
    for p, m, r in [(3, 2, 1), (5, 2, 1)]:
        tw = build_tower(p, m)
        assert (tw.q - 1) % (p ** r - 1) == 0
        n = (tw.q - 1) // (p ** r - 1)
        sub = subfield_elements(tw)
        for a in sub:
            for b in sub:
                diff = a ** n - b ** n
                assert diff ** (p ** r) == diff


def test_alpha_power_differences_wrong_exponent_fails():
    # The divisor p^r + 1 in place of p^r - 1 admits counterexamples: with
    # q = 9, r = 1, n = (q-1)/(p^r+1) = 2 some difference of squares in GF(9)
    # escapes GF(3).  Pinned here so the corrected exponent stays deliberate.
    tw = build_tower(3, 2)
    n = (tw.q - 1) // (3 + 1)
    sub = subfield_elements(tw)
    escaped = any(
        not (a ** n - b ** n) ** 3 == (a ** n - b ** n) for a in sub for b in sub
    )
    assert escaped


def test_order_determinism_and_serialization():
    tw = build_tower(17, 1)
    a = coset_union_set(tw, 12, 2)
    b = coset_union_set(tw, 12, 2)
    assert a.codes.tolist() == b.codes.tolist()
    points = [tw.format(c) for c in a.codes.tolist()]
    assert a.family == "coset_union"
    assert len(points) == 37
    assert points[-1] == "0"
