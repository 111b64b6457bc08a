"""Case generators of the property tests: hypothesis strategies, and makers that
build one case from a numpy generator, drawn in batches by seeded_batch.  No test
module is imported here."""

from math import gcd

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from agq.codes import LinearCode, rank
from agq.fields import build_tower
from agq.points import EvaluationSet, affine_grid_set, coset_union_set, explicit_set, roots_of_unity_set

from .oracles import dual
from .scalar_field import Scalar


@st.composite
def seeded_batch(draw, make, size=10):
    """size cases make(rng) from one numpy generator seeded by a hypothesis draw.
    Hypothesis repeats many elements of a list strategy; batches drawn this way
    repeat only by chance."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [make(rng) for _ in range(size)]


TOWERS_SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (2, 3)]


def random_unit(rng):
    """A uniform unit of a uniform TOWERS_SMALL field."""
    tw = build_tower(*TOWERS_SMALL[rng.integers(len(TOWERS_SMALL))])
    return Scalar(tw, rng.integers(tw.n_units))


@st.composite
def uniform_codes(draw, ks, ns, towers=((2, 1), (3, 1), (2, 2))):
    """Full-rank codes over GF(4), GF(9) or GF(16), or the given towers, with k
    from ks, n from ns and every entry drawn from the whole field (a byte mod q^2)."""
    tw = build_tower(*draw(st.sampled_from(towers)))
    n, k = draw(ns), draw(ks)
    entries = draw(st.binary(min_size=k * n, max_size=k * n))  # one draw for all k*n entries
    g = (np.frombuffer(entries, dtype=np.uint8) % tw.q2).astype(np.int32).reshape(k, n)
    assume(rank(tw, g) == k)
    return LinearCode(tw, g, provenance="hypothesis", verify_rank=False)


def random_short_code(rng):
    """A uniform full-rank [3..10, k <= 3, k < n] code over GF(4), GF(9) or GF(16)."""
    tw = build_tower(*[(2, 1), (3, 1), (2, 2)][rng.integers(3)])
    n = int(rng.integers(3, 11))
    k = int(rng.integers(1, min(3, n - 1) + 1))
    while True:
        g = rng.integers(0, tw.q2, size=(k, n)).astype(np.int32)  # q^2 - 1 is the zero code
        if rank(tw, g) == k:
            return LinearCode(tw, g, provenance="random", verify_rank=False)


def random_sparse_code(rng):
    """A full-rank [4..12, k <= 3] code over GF(4), GF(9) or GF(16) whose entries
    are zero a fifth of the time, whose columns are zero one time in twenty, and
    whose columns after the first are a unit multiple of an earlier one a fifth
    of the time, so that light words and small distances stay common."""
    tw = build_tower(*[(2, 1), (3, 1), (2, 2)][rng.integers(3)])
    n = int(rng.integers(4, 13))
    k = int(rng.integers(1, 4))
    while True:
        g = rng.integers(0, tw.n_units, size=(k, n)).astype(np.int32)
        g[rng.random((k, n)) < 0.2] = tw.zero_code
        g[:, rng.random(n) < 0.05] = tw.zero_code
        for j in range(1, n):
            if rng.random() < 0.2:
                g[:, j] = tw.vmul(int(rng.integers(tw.n_units)), g[:, rng.integers(j)])
        if rank(tw, g) == k:
            return LinearCode(tw, g, provenance="random", verify_rank=False)


def random_row(rng):
    """A uniform row of 3..14 codes over GF(4), GF(9), GF(16) or GF(25), zero included."""
    tw = build_tower(*[(2, 1), (3, 1), (2, 2), (5, 1)][rng.integers(4)])
    return tw, rng.integers(0, tw.q2, size=int(rng.integers(3, 15))).astype(np.int32)


def self_orthogonal_code(tower, n, k, seed, plant=False):
    """A random Hermitian self-orthogonal [n, k] code, 2k <= n.  Each new row is a
    random word of the Hermitian dual of the rows so far, kept when it pairs to
    zero with itself and is independent of them.  With plant, the first row is
    e_i + a*e_j with a^(q+1) = -1, a weight-2 word of C that often makes the
    code impure: every weight-2 word of the Hermitian dual may lie in C."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((0, n), dtype=np.int32)
    if plant:
        minus_one = tower.vneg(np.int32(0))
        a = next(c for c in range(tower.n_units) if tower.vpow(np.int32(c), tower.q + 1) == minus_one)
        rows = np.full((1, n), tower.zero_code, dtype=np.int32)
        rows[0, rng.choice(n, size=2, replace=False)] = (0, a)
    while len(rows) < k:
        basis = dual(LinearCode(tower, rows), "hermitian").g
        coeffs = rng.integers(0, tower.q2, size=(len(basis), 1)).astype(np.int32)
        word = tower.vsum(tower.vmul(coeffs, basis), axis=0)
        isotropic = tower.vsum(tower.vmul(word, tower.vfrob(word))) == tower.zero_code
        if isotropic and rank(tower, np.vstack([rows, word[None]])) > len(rows):
            rows = np.vstack([rows, word[None]])
    return LinearCode(tower, rows, provenance="self-orthogonal")


@st.composite
def self_orthogonal_codes(draw, fields, n_max, codim_max=None):
    """Random Hermitian self-orthogonal [2..n_max, k] codes over the given fields,
    with n - k <= codim_max when that is given.  Half of them have a planted
    weight-2 word, n >= 6 (fewer columns are often zero, and then d = 1) and
    k = (n-1)//2, where a small Hermitian dual makes impurity likely."""
    tw = build_tower(*draw(st.sampled_from(fields)))
    plant = draw(st.booleans())
    n = draw(st.integers(6 if plant else 2, n_max))
    low = max(1, n - (codim_max or n))
    k = max(low, (n - 1) // 2) if plant else draw(st.integers(low, n // 2))
    return self_orthogonal_code(tw, n, k, draw(st.integers(0, 2 ** 32 - 1)), plant)


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
