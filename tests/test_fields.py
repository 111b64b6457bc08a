import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agq.fields
from agq.cli import _repro_targets, _run_repro_target, main
from agq.config import DEFAULT_FIELD_CAP
from agq.errors import BadRequest, FieldTooLarge, NotInBaseField, NotPrime, ZeroInput
from agq.fields import _CAYLEY_MAX_Q2, AdditiveMap, FieldTower, _modulus, _shared_tower, build_tower, norm_preimage

from .modulus_search import (
    CONWAY,
    TABLE,
    _BinaryPolys,
    _is_prime,
    _least_primitive_poly,
    _PackedPolys,
    _prime_factors,
    admissible_towers,
    modulus,
    table_text,
)

from .oracles import assert_norm_preimage, gf_p_solve, packed_digits
from .scalar_field import (
    Scalar,
    field_elements,
    from_int,
    gen,
    loop_exp_values,
    one,
    plus_one,
    subfield_elements,
    tower_values,
    zero,
)
from .strategies import TOWERS_SMALL, random_unit, seeded_batch
from .workloads import workload_fields


# (p, m) of every tower that a benchmark workload or a reproduce row builds
WORKLOAD_FIELDS = sorted({pm for pms in workload_fields(_repro_targets()).values() for pm in pms})


@pytest.fixture(scope="module")
def gf9():
    return build_tower(3, 1)


@pytest.fixture(scope="module")
def gf169():
    return build_tower(13, 1)


def test_generator_order(gf9):
    th = gen(gf9)
    assert (th ** 8).is_one()
    for e in range(1, 8):
        assert not (th ** e).is_one()


def test_norm_subgroup_enumerates_base_field(gf169):
    # t^(14e) runs over GF(13)* as e runs 0..11
    seen = {(gen(gf169) ** (14 * e)).code for e in range(12)}
    base = {el.code for el in subfield_elements(gf169) if not el.is_zero()}
    assert seen == base


def test_gf16_subfield():
    tw = build_tower(2, 2)
    got = sorted(el.code for el in subfield_elements(tw))
    assert got == [0, 5, 10, 15]  # 1, t^5, t^10, zero-sentinel


def test_subfield_equals_frobenius_fixed_points():
    for p, m in TOWERS_SMALL:
        tw = build_tower(p, m)
        if tw.q2 > 2 ** 14:
            continue
        fixed = {el.code for el in field_elements(tw) if el.frobenius() == el}
        sub = {el.code for el in subfield_elements(tw)}
        assert fixed == sub


def test_exp_log_roundtrip(gf169):
    exp_val = loop_exp_values(gf169)
    assert gf169._code_of(exp_val).tolist() == list(range(gf169.n_units))


def test_norm_trace_basics(gf9):
    assert zero(gf9).relative_norm().is_zero()
    assert one(gf9).relative_norm().is_one()
    # norm of the generator generates GF(q)*
    nth = gen(gf9).relative_norm()
    assert nth.code == gf9.q + 1
    order = 1
    cur = nth
    while not cur.is_one():
        cur = cur * nth
        order += 1
    assert order == gf9.q - 1


def test_trace_of_gf4_generator():
    tw = build_tower(2, 1)
    assert gen(tw).relative_trace().is_one()


def test_norm_preimage_examples(gf9):
    assert norm_preimage(gf9, 0) == 0
    two = from_int(gf9, 2)
    v = Scalar(gf9, norm_preimage(gf9, two.code))
    assert (v ** 4) == two
    # exhaustive: the chosen preimage is among all preimages, deterministic
    all_pre = [el for el in field_elements(gf9) if not el.is_zero() and el ** 4 == two]
    assert v in all_pre
    assert norm_preimage(gf9, two.code) == v.code


def test_norm_preimage_minus_one_odd_q():
    for p, m in [(3, 1), (5, 1), (7, 1), (13, 1)]:
        tw = build_tower(p, m)
        v = Scalar(tw, norm_preimage(tw, (-one(tw)).code))
        assert v.code == (tw.q - 1) // 2
        assert v ** (tw.q + 1) == -one(tw)


def test_norm_preimage_errors(gf9):
    with pytest.raises(ZeroInput):
        norm_preimage(gf9, gf9.zero_code)  # a multiple of q+1, like GF(q)*
    with pytest.raises(NotInBaseField):
        norm_preimage(gf9, 1)  # t is not in GF(3)


def test_norm_surjective_onto_base_field():
    for p, m in TOWERS_SMALL:
        tw = build_tower(p, m)
        for c in subfield_elements(tw)[:-1]:
            v = Scalar(tw, norm_preimage(tw, c.code))
            assert v ** (tw.q + 1) == c


def test_solve_additive_kernels():
    tw16 = build_tower(2, 2)
    owner, sols = tw16.solve_additive(AdditiveMap.SQUARE_PLUS_Y, [tw16.zero_code])
    assert owner.tolist() == [0, 0] and sols.tolist() == [0, tw16.zero_code]  # {1, 0}
    _, frob = tw16.solve_additive(AdditiveMap.FROB_PLUS_Y, [tw16.zero_code])
    assert len(frob) == tw16.q
    tw9 = build_tower(3, 1)
    _, frob9 = tw9.solve_additive(AdditiveMap.FROB_MINUS_Y, [tw9.zero_code])
    assert len(frob9) == 3  # kernel of y^3 - y is GF(3)


def test_solve_additive_trace_one_has_no_solution():
    tw = build_tower(2, 1)  # GF(4)
    a = gen(tw)  # trace(t) = t + t^2 = 1 in GF(4)
    assert a.relative_trace().is_one()
    owner, sols = tw.solve_additive(AdditiveMap.SQUARE_PLUS_Y, [a.code])
    assert owner.size == 0 and sols.size == 0


def test_solve_additive_coset_cardinality():
    """Every fiber of every legal map over GF(4) .. GF(64) equals the GF(p)
    elimination's, alone and in one call over all right-hand sides, and every
    nonempty fiber is a coset of the kernel."""
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]:
        tw = build_tower(p, m)
        maps = list(AdditiveMap) if p == 2 else [AdditiveMap.FROB_PLUS_Y, AdditiveMap.FROB_MINUS_Y]
        for amap in maps:
            kernel = [Scalar(tw, k) for k in tw.solve_additive(amap, [tw.zero_code])[1].tolist()]
            fibers = []
            for a in field_elements(tw):
                sols = tw.solve_additive(amap, [a.code])[1].tolist()
                assert sols == gf_p_solve(tw, amap, a)
                if sols:
                    base = Scalar(tw, sols[0])
                    assert sorted((base + k).code for k in kernel) == sols
                fibers.append(sols)
            assert sum(map(len, fibers)) == tw.q2
            # every right-hand side at once, in reverse code order and twice over
            rhs = list(range(tw.q2))[::-1] * 2
            owner, y = tw.solve_additive(amap, rhs)
            by_code = dict(enumerate(fibers))
            assert owner.tolist() == [i for i, a in enumerate(rhs) for _ in by_code[a]]
            assert y.tolist() == [c for a in rhs for c in by_code[a]]
        if p != 2:
            for _ in range(2):  # a rejected map leaves no fiber table behind
                with pytest.raises(ValueError):
                    tw.solve_additive(AdditiveMap.SQUARE_PLUS_Y, [0])


def test_build_tower_errors():
    with pytest.raises(NotPrime):
        build_tower(6, 1)
    with pytest.raises(FieldTooLarge):
        build_tower(2, 12)  # 2^24 > DEFAULT_FIELD_CAP = 2^22
    # GF(29^2) has no Conway entry: the least primitive polynomial defines it
    tw = build_tower(29, 1)
    assert (29, 2) not in CONWAY and tw.modulus == _least_primitive_poly(29, 2)
    assert (gen(tw) ** tw.n_units).is_one()


def test_import_builds_no_tower_and_searches_no_modulus():
    """Importing agq and its CLI in a fresh interpreter leaves every tower to
    the first request: no table build runs and the table of moduli is not
    read at import.  The first build_tower then reads it, once, and each field's
    first build_tower parses its row."""
    script = (
        "import json, sys\n"
        "calls, opened = [], []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in ('_modulus', '_start', '_tabulate'):\n"
        "        calls.append(frame.f_code.co_name)\n"
        "def audit(event, args):\n"
        "    if event == 'open' and str(args[0]).endswith('moduli.json'):\n"
        "        opened.append(str(args[0]))\n"
        "sys.addaudithook(audit)\n"
        "sys.setprofile(watch)\n"
        "import agq, agq.cli\n"
        "sys.setprofile(None)\n"
        "from agq.fields import _modulus, _shared_tower, build_tower\n"
        "at_import = [calls, len(opened), _modulus.cache_info().currsize, _shared_tower.cache_info().currsize]\n"
        "build_tower(3, 1), build_tower(2, 2), build_tower(3, 1)\n"
        "print(json.dumps([at_import, len(opened), _shared_tower.cache_info().currsize]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[[], 0, 0, 0], 1, 2]


def test_build_tower_shares_one_read_only_tower():
    """Every array a tower holds is read-only, before its switch and after it,
    the computed log read's tables (built by the first such read) included."""
    tw = build_tower(2, 5)
    assert build_tower(2, 5) is tw
    for tower in (FieldTower(2, 5, _modulus(2, 5)), switched_tower(2, 5), build_tower(2, 2)):
        tower._code_of(np.arange(4))
        tables = [v for v in vars(tower).values() if isinstance(v, np.ndarray)] + list(tower._computed_log or ())
        assert len(tables) >= 11
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = table[1]


def test_build_tower_checks_the_size_first():
    """p^(2m) <= DEFAULT_FIELD_CAP = 2^22 needs m <= 11 and p <= 2^11, which are
    checked before the power is formed or p is tested for primality: huge
    parameters are rejected at once, prime or not, with a message that does
    not print the power.  The largest fields in the cap pass the checks."""
    start = time.perf_counter()
    for p, m in [(10 ** 24 + 7, 1), (2, 2 * 10 ** 8), (4, 12), (2053, 1), (3, 7), (10 ** 4000, 10 ** 4000)]:
        with pytest.raises(FieldTooLarge) as got:
            build_tower(p, m)
        assert len(str(got.value)) < len(str(p)) + len(str(m)) + 100
    assert time.perf_counter() - start < 0.5
    with mock.patch("agq.fields._shared_tower", lambda p, m: (p, m)):  # checks only, no tables
        for p, m in [(2, 11), (2039, 1), (3, 6)]:  # 2^22; the largest prime below 2^11; 3^12
            assert build_tower(p, m) == (p, m)


def test_shared_towers_never_skip_a_check():
    build_tower(2, 5)
    build_tower(29, 1)
    for _ in range(2):
        with pytest.raises(FieldTooLarge):
            build_tower(2, 12)
        with pytest.raises(NotPrime):
            build_tower(6, 1)
        for m in (0, -1):
            with pytest.raises(BadRequest):
                build_tower(5, m)


def shipped_moduli():
    """{(p, m): modulus}, every row of the table of moduli, parsed as JSON."""
    return {(p, m): tuple(f) for p, m, f in json.loads(TABLE.read_text())}


def test_table_of_moduli_covers_exactly_the_towers_within_the_cap():
    """One monic modulus of degree 2m for each of the 340 (p, m) with p prime and
    p^(2m) <= DEFAULT_FIELD_CAP = 2^22, and the file is the writer's, byte for byte.
    The row reader finds every row, and no row for an inadmissible (p, m)."""
    moduli = shipped_moduli()
    towers = {(p, m) for p in range(2, 2 ** 11 + 1) if _is_prime(p) for m in range(1, 12) if p ** (2 * m) <= DEFAULT_FIELD_CAP}
    assert len(towers) == 340
    assert moduli.keys() == towers
    assert admissible_towers() == sorted(towers)
    for (p, m), f in moduli.items():
        assert len(f) == 2 * m + 1 and f[-1] == 1, (p, m)
        assert all(0 <= c < p for c in f) and f[0] != 0, (p, m)
    assert TABLE.read_text() == table_text(moduli)
    assert {pm: _modulus(*pm) for pm in towers} == moduli
    for p, m in [(1, 1), (4, 1), (6, 1), (2, 12), (2039, 2), (0, 0), (20, 39)]:
        assert _modulus(p, m) is None, (p, m)


def test_table_of_moduli_matches_the_search():
    """Every m >= 2 entry, and a seeded sample of 24 of the 309 degree-2 entries,
    re-derived by the reference search."""
    moduli = shipped_moduli()
    degree_two = sorted(pm for pm in moduli if pm[1] == 1)
    sample = [degree_two[i] for i in np.random.default_rng(21).choice(len(degree_two), 24, replace=False)]
    for pm in sorted(pm for pm in moduli if pm[1] >= 2) + sample:
        assert moduli[pm] == modulus(*pm), pm


def tower_tables(tw):
    every = np.arange(tw.q2)
    tables = (tw._code_of(every), tw._value_of(every), tw._low_word, tw._high_word, tw._add_table, tw._mul_table)
    return [None if t is None else t.tobytes() for t in tables]


def test_reproduce_rows_leave_shared_tower_tables_unchanged():
    targets = _repro_targets()
    towers = {build_tower(t["recipe"]["p"], t["recipe"]["m"]) for t in targets}
    before = {tw: tower_tables(tw) for tw in towers}
    for target in targets:
        _run_repro_target(target)
    for tw, tables in before.items():
        assert build_tower(tw.p, tw.m) is tw
        assert tower_tables(tw) == tables


def batch_mulmod(a, b, f, p):
    """Reference oracle: a * b mod monic f over GF(p) for a batch of (a, b, f),
    rows of int64 arrays of d coefficients, constant first; f without its
    leading 1.  Schoolbook multiplication and division."""
    d = f.shape[1]
    res = np.zeros((len(f), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        res[:, i : i + d] += a[:, i : i + 1] * b
    res %= p
    for i in range(2 * d - 2, d - 1, -1):
        res[:, i - d : i] -= res[:, i : i + 1] * f
        res[:, i - d : i] %= p
    return res[:, :d]


def batch_is_one_power_of_x(f, e, p):
    """Reference oracle: is x^e = 1 modulo each monic f (rows of batch_mulmod's
    form), by square-and-multiply."""
    one = np.zeros_like(f)
    one[:, 0] = 1
    result, square = one, (np.roll(one, 1, axis=1) if f.shape[1] > 1 else -f % p)
    while e:
        if e & 1:
            result = batch_mulmod(result, square, f, p)
        square = batch_mulmod(square, square, f, p)
        e >>= 1
    return (result == one).all(axis=1)


def packed_order_scan(p, deg):
    """Reference oracle: the first monic polynomial f in packed-value order modulo
    which x has full order n = p^deg - 1, that is x^n = 1 and x^(n/r) != 1 for
    every prime r of n, with no other test in front.  Checks candidates in
    blocks that double from 8."""
    n = p ** deg - 1
    start, block = 1, 8
    while start <= n:
        f = np.arange(start, min(start + block, n + 1))[:, None] // p ** np.arange(deg) % p
        start, block = start + block, 2 * block
        full = (f[:, 0] != 0) & batch_is_one_power_of_x(f, n, p)
        for r in _prime_factors(n):
            full &= ~batch_is_one_power_of_x(f, n // r, p)
        if full.any():
            return tuple(f[full.argmax()].tolist()) + (1,)


# every field a workload builds, plus every p^d <= 2^12
MODULUS_CASES = sorted(
    {(p, 2 * m) for p, m in WORKLOAD_FIELDS}
    | {(p, d) for p in range(2, 2 ** 12 + 1) if _is_prime(p) for d in range(1, 13) if p ** d <= 2 ** 12}
)


def test_filtered_modulus_search_matches_packed_order_scan():
    assert {(2, 12), (2, 16), (3, 8), (7, 4), (13, 4), (31, 2), (251, 2)} <= set(MODULUS_CASES)
    for p, d in MODULUS_CASES:
        assert _least_primitive_poly(p, d) == packed_order_scan(p, d), (p, d)


def search_polys(p, deg):
    return _BinaryPolys(deg) if p == 2 else _PackedPolys(p, deg)


def pack(polys, coeffs):
    """The packed int of a coefficient list, constant first: bit i for p = 2,
    field i of polys.w bits for odd p."""
    width = 1 if polys.p == 2 else polys.w
    return sum(c % polys.p << i * width for i, c in enumerate(coeffs))


def test_binary_squaring_matches_the_general_product():
    """For p = 2 the order test squares by a bit spread; forcing every square
    through the general product must give the same least primitive polynomial
    at every degree 2..22, and the same squares as the list oracle."""
    rng = np.random.default_rng(3)
    for d in range(2, 23):
        f = _least_primitive_poly(2, d)
        with mock.patch.object(_BinaryPolys, "square", lambda self, a, f: self.mulmod(a, a, f)):
            assert _least_primitive_poly(2, d) == f, d
        polys = _BinaryPolys(d)
        for a in rng.integers(0, 2, size=(8, d)).tolist():
            pa, pf = pack(polys, a), pack(polys, f)
            square = polys.square(pa, pf)
            assert square == polys.mulmod(pa, pa, pf) == pack(polys, poly_square(a, f, 2)), (d, a)
            assert square == pack(polys, poly_mulmod(a, a, f, 2)), (d, a)


# primes p with p^2 within the field cap, above the 2^12 of MODULUS_CASES
LARGE_PRIMES = [p for p in range(65, int(DEFAULT_FIELD_CAP ** 0.5) + 1) if _is_prime(p)]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from(LARGE_PRIMES))
@example(LARGE_PRIMES[-1])
def test_degree_two_modulus_search_matches_packed_order_scan(p):
    """Degree 2 decides irreducibility by Euler's criterion on the discriminant;
    a sample of the primes up to 2039, the largest p with p^2 within the cap."""
    assert LARGE_PRIMES[-1] == 2039
    assert _least_primitive_poly(p, 2) == packed_order_scan(p, 2), p


def reducible_monics(p, d):
    """Reference oracle: every monic polynomial of degree d over GF(p) that is a
    product of two monic polynomials of positive degree, coefficients ascending."""
    def monics(j):
        return [[packed // p ** i % p for i in range(j)] + [1] for packed in range(p ** j)]

    return {
        tuple(int(c) for c in np.convolve(a, b) % p)
        for i in range(1, d // 2 + 1)
        for a in monics(i)
        for b in monics(d - i)
    }


@pytest.mark.parametrize("p,d", [(2, 2), (2, 5), (2, 8), (3, 4), (3, 6), (5, 3), (5, 4), (13, 2)])
def test_ben_or_matches_factor_products(p, d):
    reducible = reducible_monics(p, d)
    polys = search_polys(p, d)
    for packed in range(1, p ** d):
        f = [packed // p ** i % p for i in range(d)] + [1]
        if f[0]:
            assert polys.has_small_factor(pack(polys, f)) == has_small_factor(f, p) == (tuple(f) in reducible), f


# -- list arithmetic over GF(p), coefficients ascending: the oracle of the packed
# arithmetic that the modulus search uses


def poly_mulmod(a, b, f, p):
    """a b mod monic f, each coefficient reduced mod p, padded to deg f."""
    n = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    for i in range(len(res) - 1, n - 1, -1):  # f is monic; reduce mod p once, at the end
        c = res[i] % p
        if c:
            for j in range(n):
                res[i - n + j] -= c * f[j]
    out = [c % p for c in res[:n]]
    return out + [0] * (n - len(out))


def poly_rem(a, b, p):
    """a mod b over GF(p), trailing zeros dropped; b ends in a nonzero
    coefficient, and a's coefficients may be any integers."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(db):
                a[i - db + j] -= c * b[j]
    a = [c % p for c in a[:db]]
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_gcd(a, b, p):
    """The last nonzero remainder of Euclid's algorithm on a and b."""
    while b:
        a, b = b, poly_rem(a, b, p)
    return a


def poly_square(a, f, p):
    """a^2 mod f.  For p = 2 the square of sum a_i x^i is sum a_i x^(2i), as cross
    terms come in pairs, so it is a coefficient spread reduced mod f."""
    if p != 2:
        return poly_mulmod(a, a, f, p)
    spread = [0] * (2 * len(a) - 1)
    spread[::2] = a
    out = poly_rem(spread, f, p)
    return out + [0] * (len(f) - 1 - len(out))


def has_small_factor(f, p) -> bool:
    """Ben-Or's test on lists: does monic f of degree d >= 2 with f(0) != 0
    have a factor of degree <= d/2?  x^(p^j) is the p-th power of x^(p^(j-1)),
    h^p = sum h_i x^(ip), as h_i^p = h_i in GF(p)."""
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        power = [0] * (p * len(h) - p + 1)
        power[::p] = h
        h = poly_rem(power, f, p)  # x^(p^j) mod f
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        if len(poly_gcd(f, poly_rem(h_minus_x, f, p), p)) > 1:
            return True
    return False


@st.composite
def packed_poly_cases(draw):
    """p in {2, 3, 5, 7, 13}, degree 1..10 (1..6 for odd p), a monic f of that
    degree, a and b below it, and a nonzero divisor of any degree up to it."""
    p = draw(st.sampled_from([2, 2, 3, 5, 7, 13]))
    deg = draw(st.integers(1, 10 if p == 2 else 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = rng.integers(0, p, size=(2, deg)).tolist()
    f = rng.integers(0, p, size=deg).tolist() + [1]
    divisor = rng.integers(0, p, size=draw(st.integers(0, deg))).tolist() + [int(rng.integers(1, p))]
    return p, deg, a, b, f, divisor


@settings(max_examples=300, deadline=None, derandomize=True)
@given(packed_poly_cases())
@example((2, 1, [1], [1], [1, 1], [1]))
@example((13, 4, [12] * 4, [12] * 4, [12] * 4 + [1], [12] * 5))
@example((7, 6, [0] * 6, [6] * 6, [0] * 6 + [1], [6] * 3))
@example((3, 12, [2] * 12, [2] * 12, [2] * 12 + [1], [2] * 13))  # GF(3^12), the largest odd-p degree searched
def test_packed_arithmetic_matches_list_oracle(case):
    """mulmod, rem and gcd of the packed search arithmetic against the list
    oracle, and the largest coefficients each packing must hold."""
    p, deg, a, b, f, divisor = case
    polys = search_polys(p, deg)
    pa, pb, pf, pdiv = (pack(polys, c) for c in (a, b, f, divisor))
    assert polys.coeffs(pa, deg) == tuple(a)
    assert polys.mulmod(pa, pb, pf) == pack(polys, poly_mulmod(a, b, f, p))
    assert polys.square(pa, pf) == pack(polys, poly_square(a, f, p))
    assert polys.rem(pf, pdiv) == pack(polys, poly_rem(f, divisor, p))
    assert polys.rem(pa, pdiv) == pack(polys, poly_rem(a, divisor, p))
    for x, y in ((f, a), (f, divisor), (divisor, b)):
        if any(y):
            y = y[: max(i for i, c in enumerate(y) if c) + 1]
            assert polys.gcd(pack(polys, x), pack(polys, y)) == pack(polys, poly_gcd(x, y, p))


def test_table_holds_the_conway_polynomials():
    assert len(CONWAY) == 16
    for (p, d), f in CONWAY.items():
        assert _modulus(p, d // 2) == f, (p, d)


def test_conway_constant_terms_match_smallest_primitive_roots():
    # theta^(q+1) must equal the smallest primitive root of the prime field
    for p, g in [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2), (17, 3), (19, 2), (23, 5)]:
        tw = build_tower(p, 1)
        assert gen(tw) ** (p + 1) == from_int(tw, g)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seeded_batch(lambda rng: rng.random()))
def test_parse_format_roundtrip(fractions):
    """Codes drawn uniformly from GF(4), GF(9), GF(169) and GF(2^10), zero
    included, survive format then parse; malformed tokens are BadRequest."""
    for tw in map(build_tower, (2, 3, 13, 2), (1, 1, 1, 5)):
        for code in [int(u * tw.q2) for u in fractions]:
            assert tw.parse(tw.format(code)) == code
        assert (tw.parse("0"), tw.parse("1"), tw.parse("t")) == (tw.zero_code, 0, 1)
        assert tw.parse(f" t^{tw.n_units + 2} ") == 2  # exponents are taken mod q^2-1
        assert tw.parse(str(tw.p - 1)) == from_int(tw, tw.p - 1).code
        for token in (str(tw.p), "-1", "t^x", "t^", "x", ""):  # p is outside the digits 0..p-1
            with pytest.raises(BadRequest):
                tw.parse(token)


@st.composite
def element_lists(draw):
    """64 elements of GF(9), GF(169) or GF(16), zero included."""
    tw = build_tower(*draw(st.sampled_from([(3, 1), (13, 1), (2, 2)])))
    codes = draw(st.lists(st.integers(0, tw.zero_code), min_size=64, max_size=64))
    return tw, [Scalar(tw, c) for c in codes]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(element_lists())
def test_scalar_vector_op_agreement(case):
    tw, els = case
    a = np.asarray([el.code for el in els[:32]], dtype=np.int32)
    b = np.asarray([el.code for el in els[32:]], dtype=np.int32)
    va, vm, vs = tw.vadd(a, b), tw.vmul(a, b), tw.vsub(a, b)
    vf = tw.vfrob(a)
    for i in range(32):
        x, y = els[i], els[32 + i]
        assert va[i] == (x + y).code
        assert vm[i] == (x * y).code
        assert vs[i] == (x - y).code
        assert vf[i] == x.frobenius().code
    total = tw.vsum(a)
    acc = zero(tw)
    for x in els[:32]:
        acc = acc + x
    assert total == acc.code


# 1000 checks as 100 seeded batches of 10: 354 distinct units of the 529 in
# these fields (hypothesis 6.155)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_batch(random_unit))
def test_norm_preimage_property_suite(units):
    """Norm-preimage checks across the TOWERS_SMALL fields."""
    for x in units:
        assert_norm_preimage(x)


# -- table layer against independent oracles ---------------------------------------


def blocked_exp_values(tw):
    """Reference oracle: the packed values of t^0 .. t^(n-1) in the polynomial
    basis, from a blocked companion-matrix build: digit rows of a block of width
    about sqrt(n), times powers of the companion matrix.  The products are
    float64 for speed; every entry is an integer below deg * p^2."""
    p, deg, n = tw.p, 2 * tw.m, tw.n_units
    step = np.zeros((deg, deg))
    step[np.arange(deg - 1), np.arange(1, deg)] = 1
    step[deg - 1] = [(-c) % p for c in tw.modulus[:deg]]
    weights = p ** np.arange(deg, dtype=np.int64)
    width = 1 << (n.bit_length() // 2)
    block = np.eye(1, deg, dtype=np.int64)
    while len(block) < width:
        block = np.concatenate([block, (block @ step).astype(np.int64) % p])
        step = step @ step % p
    exp_val = np.empty(n, dtype=np.int64)
    for start in range(0, n, width):
        stop = min(start + width, n)
        exp_val[start:stop] = block[: stop - start] @ weights
        block = (block @ step).astype(np.int64) % p
    return exp_val


def computed_tower(p, m):
    """A fresh tower of GF(p^(2m)) whose exp and log reads are all computed
    from its O(q) tables: its q^2-entry tables, if any, dropped, and the switch
    turned off."""
    tw = FieldTower(p, m, _modulus(p, m))
    tw._exp = tw._log_val = None
    tw._count_reads = lambda size: False
    return tw


def switched_tower(p, m):
    """A fresh tower of GF(p^(2m)) with its exp and log tables: beyond the
    Cayley bound, built by the switch on one exp read of all q^2 codes."""
    tw = FieldTower(p, m, _modulus(p, m))
    tw._value_of(np.arange(tw.q2))
    assert tw._exp is not None and tw._log_val is not None
    return tw


def assert_tables_match(tw, exp_val):
    """exp_val is an oracle's packed value of each power of t in the polynomial
    basis.  The tower packs it in tower coordinates, tower_values' packing: for
    m = 1 that is exp_val itself, {1, t} being both bases.  The tower's exp and
    log reads are that packing and its inverse, each with the zero code at the
    value 0, and its additive words hold that packing's digits.  The Zech logs,
    and the code that each slot sum of _sum_products reads, do not depend on
    the basis: they are those that exp_val determines."""
    p, deg, n = tw.p, 2 * tw.m, tw.n_units
    packed = tower_values(tw, exp_val)
    if tw.m == 1:
        assert np.array_equal(packed, exp_val)
    log_val = np.full(tw.q2, tw.zero_code, dtype=np.int32)
    log_val[packed] = np.arange(n, dtype=np.int32)
    every = np.arange(tw.q2)
    assert tw._code_of(every).dtype == np.int32
    assert np.array_equal(tw._code_of(every), log_val)
    assert np.array_equal(tw._value_of(every), np.append(packed, 0))
    assert [tw.parse(str(c)) for c in range(min(tw.p, 50))] == log_val[: min(tw.p, 50)].tolist()
    units = np.arange(n)
    poly_log = np.full(tw.q2, tw.zero_code, dtype=np.int64)
    poly_log[exp_val] = units
    assert np.array_equal(tw.zech_log(units), poly_log[plus_one(p, exp_val)])
    # additive words: t^e's digits in fields of floor(63/2m) bits, then the zero word
    words = sum(packed // p ** i % p << (63 // deg) * i for i in range(deg))
    assert np.array_equal(tw._word_of(every), np.append(words, 0))
    # a slot sum s reads t^(s mod n) below 2n-1 and the zero word from 2n-1 on
    slots = np.arange(2 * n + 2, dtype=np.int64)
    want = np.append(np.concatenate([units, units[:-1]]), [tw.zero_code] * 3)
    assert np.array_equal(tw._sum_products(slots[:, None], np.zeros(1, dtype=np.int64)), want)


# every Conway field, every field a workload builds (GF(2^12), GF(3^8), GF(7^4),
# GF(13^4), GF(31^2) and GF(251^2) are not Conway), GF(2^16) and GF(29^2)
@pytest.mark.parametrize(
    "pm", sorted({(p, d // 2) for p, d in CONWAY} | set(WORKLOAD_FIELDS) | {(2, 8), (29, 1)}),
    ids=lambda pm: f"{pm[0]}^{2 * pm[1]}",
)
def test_build_tables_match_loop(pm):
    """The computed reads, and the reads after the switch, against the loop oracle."""
    for tw in (computed_tower(*pm), switched_tower(*pm)):
        assert_tables_match(tw, loop_exp_values(tw))


@pytest.mark.parametrize("pm", [(2, 10), (1009, 1)], ids=lambda pm: f"{pm[0]}^{2 * pm[1]}")
def test_build_tables_match_blocked_build(pm):
    """Fields too large for the loop oracle: GF(2^20), and GF(1009^2), m = 1 with p > 1000."""
    tw = computed_tower(*pm)
    exp_val = blocked_exp_values(tw)
    for tw in (tw, switched_tower(*pm)):
        assert_tables_match(tw, exp_val)


@pytest.mark.parametrize("block", [1, 7, 61])
def test_build_tables_across_block_boundaries(block):
    """A table build whose blocks of rows are one row, or a few, so that its
    slices and its log scatter cross many block boundaries, matches the oracles
    and a build in default blocks on every table."""
    with mock.patch.object(agq.fields, "_TABLE_BLOCK", block):
        towers = [switched_tower(p, m) for p, m in [(2, 5), (3, 3), (7, 2), (13, 1), (2, 3)]]
    for tw in towers:
        assert_tables_match(tw, loop_exp_values(tw))
        assert tower_tables(tw) == tower_tables(switched_tower(tw.p, tw.m))


def table_bytes(tw):
    """Bytes of every array a tower holds but the Cayley tables, counting a
    view's whole base once; the fiber tables, filled on first use, are left out."""
    cayley = (tw._add_table, tw._mul_table)
    arrays = [v for v in vars(tw).values() if isinstance(v, np.ndarray) and not any(v is t for t in cayley)]
    return sum({id(b): b.nbytes for b in (a if a.base is None else a.base for a in arrays)}.values())


@pytest.mark.parametrize("pm", sorted(set(WORKLOAD_FIELDS) | {(2, 10)}), ids=lambda pm: f"{pm[0]}^{2 * pm[1]}")
def test_tower_keeps_eight_bytes_per_element(pm):
    """Beyond the Cayley bound a tower starts with O(q) bytes: GF(q)'s exp
    and log tables, the logs of the columns t^j, the log read's tables, the
    word tables and the digit weights, about 120 bytes per element of GF(q).
    After the switch, and in a Cayley field from the start, it adds two
    q^2-entry int32 tables, exp and log, and nothing else: 8 bytes per element."""
    tw = FieldTower(*pm, _modulus(*pm))
    if tw.q2 > _CAYLEY_MAX_Q2:
        assert tw._exp is None and tw._log_val is None
        start = table_bytes(tw)
        assert start <= 128 * tw.q + 1024
        tw._value_of(np.arange(tw.q2))
        assert table_bytes(tw) == start + 8 * tw.q2
    assert tw._exp.nbytes == tw._log_val.nbytes == 4 * tw.q2
    assert table_bytes(tw) <= 8 * tw.q2 + 128 * tw.q + 1024


def test_gf_2_20_build_peak_memory():
    """A fresh GF(2^20) tower, its tables built at once, holds nothing larger
    than the tables it keeps: numpy reports its allocations to tracemalloc, so
    the traced peak is deterministic, and it stays within the two tables' 8 q^2
    bytes plus 2 MB for the q-entry tables and the block buffers; 10 q^2 bytes
    in all.  (The 2(q^2-1)-word build buffer of an earlier build alone was
    16 q^2, and the slices without blocks peak at about 13 q^2.)"""
    tracemalloc.start()
    try:
        tw = FieldTower(2, 10, _modulus(2, 10))
        tw._tabulate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * tw.q2 + (2 << 20)


def kernel_outputs(tw, rng):
    """Every kernel that reads exp or log, on operands drawn from rng, with
    the computed reads each one adds: (outputs, reads)."""
    a, b = (rng.integers(0, tw.q2, size=40).astype(np.int32) for _ in range(2))
    cube = rng.integers(0, tw.q2, size=(3, 4, 5)).astype(np.int32)
    slots = tw._word_slots(rng.integers(0, tw.q2, size=(6, 7)))
    calls = [
        (lambda: tw.vadd(a, b), 80), (lambda: tw.vsub(a, b), 80), (lambda: tw.vmul(a, b), 0),
        (lambda: tw.zech_log(a[a < tw.n_units]), 2 * int(np.count_nonzero(a < tw.n_units))),
        (lambda: tw.vsum(cube, 1), 60 + 15), (lambda: tw.vsum(a), 41),
        (lambda: tw._word_of(b), 40), (lambda: tw._sum_products(slots[:, None, :], slots[None]), 36 * 7 + 36),
        (lambda: tw.parse(str(tw.p - 1)), 1),
    ]
    outputs, reads = [], []
    for call, count in calls:
        before = tw._computed_reads
        outputs.append(call())
        reads.append((tw._computed_reads - before, count))
    return outputs, reads


@pytest.mark.parametrize("pm", [(2, 5), (31, 1), (3, 3), (2, 8)], ids=lambda pm: f"{pm[0]}^{2 * pm[1]}")
def test_switch_builds_the_tables_on_the_read_that_reaches_q2(pm):
    """Beyond the Cayley bound a tower holds no q^2-entry table after
    construction.  Each element an exp or log read computes counts once (a
    Zech log or a sum of two units is an exp and a log read), and the read
    that brings the count to q^2 builds the tables, not one read earlier.  No
    kernel's output changes at the switch, and afterwards no read is computed."""
    tw = FieldTower(*pm, _modulus(*pm))
    assert tw.q2 > _CAYLEY_MAX_Q2
    assert (tw._exp, tw._log_val, tw._add_table, tw._mul_table, tw._computed_reads) == (None,) * 4 + (0,)
    before, reads = kernel_outputs(tw, np.random.default_rng(pm[0]))
    for got, want in reads:
        assert got == want
    tw._value_of(np.arange(tw.q2 - 1 - tw._computed_reads))
    assert tw._computed_reads == tw.q2 - 1 and tw._exp is None and tw._log_val is None
    assert tw._code_of(5) == computed_tower(*pm)._code_of(5)  # the read that reaches q^2
    assert tw._computed_reads == tw.q2 and tw._exp is not None and tw._log_val is not None
    after, reads = kernel_outputs(tw, np.random.default_rng(pm[0]))
    assert tw._computed_reads == tw.q2 and all(got == 0 for got, _ in reads)
    for x, y in zip(before, after):
        assert type(x) is type(y) and np.asarray(x).dtype == np.asarray(y).dtype
        assert np.array_equal(x, y)


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (17, 1)])
def test_cayley_towers_hold_every_table_at_construction(pm):
    """Up to q^2 = 2^9 a tower builds its exp, log and Cayley tables at
    construction, and no kernel computes a read."""
    tw = FieldTower(*pm, _modulus(*pm))
    assert tw.q2 <= _CAYLEY_MAX_Q2
    assert all(t is not None for t in (tw._exp, tw._log_val, tw._add_table, tw._mul_table))
    kernel_outputs(tw, np.random.default_rng(0))
    assert tw._computed_reads == 0


# the c1 record over GF(2^22) with n = 2048, "time_s" aside
GF_2_22_RECORD = {
    "request": {"construction": "c1", "p": 2, "m": 11, "n": 2048, "t": None, "k": None, "embed": "none"},
    "verdict": "CERTIFIED",
    "classical": {"q2": 4194304, "n": 2048, "k": 1, "mds": True, "mds_method": "vandermonde",
                  "designed_distance": 2048, "d": 2048, "d_method": "mds-singleton"},
    "quantum": {"q": 2048, "n": 2048, "k": 2046, "d": 2, "d_exact": True, "d_method": "mds-singleton",
                "mds": True, "defect": 0},
    "dual_distance": {"value": 2, "exact": True, "method": "mds-singleton"},
    "gram_digest": "a79d683f0c53b485790e7bf3677853917e2cab030a721f76e5154356822b10f8",
    "witnesses": {"mds_singular": None, "dual_distance_columns": None},
    "trace": ["c1: roots of x^2048 - x", "B(j) residues for j=1..1: [0]"],
}


def test_c1_over_gf_2_22_builds_no_q2_table(capsys):
    """A length-2048 c1 code over GF(2^22) reads a few thousand elements, far
    from the switch at 2^22, so its tower keeps only the O(q) tables."""
    assert main(["construct", "--construction", "c1", "--p", "2", "--m", "11", "--n", "2048"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record.pop("time_s") >= 0
    assert record == GF_2_22_RECORD
    tw = build_tower(2, 11)
    assert tw._exp is None and tw._log_val is None and 0 < tw._computed_reads < tw.q2 // 100


def test_non_primitive_modulus_is_rejected():
    # x^2 + 1 is irreducible over GF(3), but x has order 4 modulo it, not 8
    with pytest.raises(AssertionError, match="not primitive"):
        FieldTower(3, 1, (1, 0, 1))


# irreducible moduli whose t is not primitive, each failing one clause of the
# certificate: p, m, the modulus and the order of t
NOT_PRIMITIVE = [
    (2, 2, (1, 1, 1, 1, 1), 5),  # x^4+x^3+x^2+x+1: N = t^5 = 1, and N^0, N^1 is no basis of GF(4)
    (7, 1, (6, 1, 1), 16),  # x^2+x+6: N = t^8 = -1 has order 2, not 6
    (5, 1, (3, 0, 1), 8),  # x^2+3: N = t^6 = 3 generates GF(5)*, but t^2 = 2 lies in GF(5)
    (2, 3, (1, 0, 1, 0, 1, 1, 1), 21),  # x^6+x^5+x^4+x^2+1: N = t^9 generates GF(8)*, but t^3 lies in it
]


@pytest.mark.parametrize("p,m,modulus,order", NOT_PRIMITIVE, ids=["2^4", "7^2", "5^2", "2^6"])
def test_primitivity_certificate_rejects_each_clause(p, m, modulus, order):
    """The build certifies t primitive in O(q): N = t^(q+1) has q-1 distinct
    powers, and t^1 .. t^q lie in distinct cosets of GF(q)*.  Each modulus here
    is irreducible and t has the given order, by list arithmetic.  From that
    order, N's order is order / gcd(order, q+1), and t^j lies in GF(q)* exactly
    when order divides j(q-1): exactly one clause holds, and the other alone
    must reject the modulus."""
    q, f = p ** m, list(modulus)
    assert not has_small_factor(f, p)
    one = [1] + [0] * (2 * m - 1)
    power, k = poly_mulmod(one, [0, 1], f, p), 1
    while power != one:
        power, k = poly_mulmod(power, [0, 1], f, p), k + 1
    assert k == order < q * q - 1
    powers_hold = order // np.gcd(order, q + 1) == q - 1
    cosets_hold = not any(j * (q - 1) % order == 0 for j in range(1, q + 1))
    assert powers_hold != cosets_hold
    with pytest.raises(AssertionError, match="not primitive"):
        FieldTower(p, m, modulus)


def test_non_primitive_table_entry_builds_no_tower():
    """A table entry that is irreducible but not primitive, x^2 + 1 over GF(3),
    fails the table build on every request, and no tower is kept for it."""
    _shared_tower.cache_clear()
    with mock.patch.object(agq.fields, "_modulus", lambda p, m: (1, 0, 1) if (p, m) == (3, 1) else _modulus(p, m)):
        for _ in range(2):
            with pytest.raises(AssertionError, match="not primitive"):
                build_tower(3, 1)
        assert _shared_tower.cache_info().currsize == 0
    assert build_tower(3, 1).modulus == CONWAY[3, 2]


# Cayley towers (q^2 <= 2^9) and Zech/log towers, (29, 1) least-primitive
KERNEL_TOWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (17, 1),
                 (29, 1), (31, 1), (2, 5), (3, 4), (2, 8)]


@st.composite
def kernel_operands(draw):
    """A tower and two aligned code arrays, zero against zero and against a unit included."""
    tw = build_tower(*draw(st.sampled_from(KERNEL_TOWERS)))
    codes = st.lists(st.integers(0, tw.zero_code), min_size=1, max_size=8)
    x, y = draw(codes), draw(codes)
    size = min(len(x), len(y))
    z = tw.zero_code
    a = np.asarray(x[:size] + [z, x[0], z], dtype=np.int32)
    b = np.asarray(y[:size] + [y[0], z, z], dtype=np.int32)
    return tw, a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_operands())
def test_kernels_match_packed_digit_oracle(case):
    """Sums are digit-wise mod-p sums and products are batch_mulmod products of
    the packed values, on the Cayley path, on _log_add/_log_mul called directly,
    and for the scalar operators."""
    tw, a, b = case
    p, z = tw.p, tw.zero_code
    assert (tw._add_table is not None) == (tw.q2 <= _CAYLEY_MAX_Q2)
    sums = [tw.vadd(a, b), tw._log_add(a, b)]
    prods = [tw.vmul(a, b), tw._log_mul(a, b)]
    diff, quot = tw.vsub(a, b), tw.vdiv(a, b)
    for out in sums + prods + [diff, quot]:
        assert out.dtype == np.int32 and out.shape == a.shape
    digits = np.array([packed_digits(tw, c) for c in np.concatenate([a, b, quot]).tolist()])
    f = np.tile(tw.modulus[:-1], (len(a), 1))
    xy = batch_mulmod(digits[: len(a)], digits[len(a) : 2 * len(a)], f, p).tolist()
    quot_y = batch_mulmod(digits[2 * len(a) :], digits[len(a) : 2 * len(a)], f, p).tolist()
    total = [0] * (2 * tw.m)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        dx, dy = packed_digits(tw, x), packed_digits(tw, y)
        total = [(u + v) % p for u, v in zip(total, dx)]
        for s in sums:
            assert packed_digits(tw, s[i]) == [(u + v) % p for u, v in zip(dx, dy)]
        for m in prods:
            assert packed_digits(tw, m[i]) == xy[i]
        assert packed_digits(tw, diff[i]) == [(u - v) % p for u, v in zip(dx, dy)]
        if y == z:
            assert quot[i] == z
        else:
            assert quot_y[i] == dx
        ex, ey = Scalar(tw, x), Scalar(tw, y)
        assert ((ex + ey).code, (ex * ey).code, (ex - ey).code) == (sums[0][i], prods[0][i], diff[i])
        if y != z:
            assert (ex / ey).code == quot[i]
    assert packed_digits(tw, tw.vsum(a)) == total


# operand shapes the elimination code broadcasts: rref's vmul(factors[:, None], row),
# a scalar against an array, 0-d against 0-d; "int" is a Python int
BROADCAST_SHAPES = [((5, 1), (5, 7)), ((5, 7), (5, 1)), ((1, 7), (5, 1)), ("int", (7,)), ((7,), "int"),
                    ((), (5, 7)), ((5, 7), ()), ((), ()), ("int", ())]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(KERNEL_TOWERS), st.sampled_from(BROADCAST_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_kernels_broadcast_their_operands(pm, shapes, seed):
    """vadd and vmul on the Cayley path, and _log_add and _log_mul called
    directly, broadcast their operands as numpy does: every entry is the Scalar
    sum or product of the broadcast operands' entries, zero codes included."""
    tw = build_tower(*pm)
    rng = np.random.default_rng(seed)

    def operand(shape):
        if shape == "int":
            return int(rng.integers(0, tw.q2))
        return rng.integers(0, tw.q2, size=shape).astype(np.int32)

    a, b = operand(shapes[0]), operand(shapes[1])
    xs, ys = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    pairs = [(Scalar(tw, x), Scalar(tw, y)) for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())]
    sums = [(x + y).code for x, y in pairs]
    prods = [(x * y).code for x, y in pairs]
    for kernel, expected in ((tw.vadd, sums), (tw._log_add, sums), (tw.vmul, prods), (tw._log_mul, prods)):
        out = kernel(a, b)
        assert np.shape(out) == xs.shape and np.asarray(out).dtype == np.int32
        assert np.ravel(out).tolist() == expected
