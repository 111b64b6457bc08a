"""Evaluation point sets on the projective line and their twist vectors.

Four families: roots of x^n - x, unions of multiplicative-subgroup cosets,
affine grids u_i*a + u_j, and explicit sets.  Local derivative values
h'(alpha_i) are always the product over the set, never a closed form;
closed forms from the underlying theory show up only as test oracles.
Point sets and twist vectors are read-only int32 arrays of exponent codes.
The product is taken as a sum of discrete logs over those codes, one numpy
gather from the Zech table a block of rows at a time, and once per orbit of
the set's multiplicative stabilizer: the stabilizer is found by checking
shifts of the codes, never read from the family or its parameters.  The
twist vector is computed on the whole code array too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .errors import (
    BadRequest,
    CosetSearchExhausted,
    DivisibilityViolated,
    LeaderNotInV,
    NotNormValue,
    TooManyCosets,
)
from .fields import FieldTower

FAMILY_ROOTS_OF_UNITY = "roots_of_unity"
FAMILY_COSET_UNION = "coset_union"
FAMILY_AFFINE_GRID = "affine_grid"
FAMILY_EXPLICIT = "explicit"

# table reads per block of rows, in local derivatives (Zech table, one row per
# stabilizer orbit) and in codes.hermitian_gram (additive table, one column per
# orbit of the checked symmetry plus the zero point): 2 MB of int64 indices
_GATHER_ENTRIES = 1 << 18


def _repeats(codes: np.ndarray) -> np.ndarray:
    """Mask of the entries of an ascending code array that occur more than
    once (neighbour comparison: np.unique imports numpy.ma on its first call)."""
    same = codes[1:] == codes[:-1]
    out = np.zeros(len(codes), dtype=bool)
    out[1:] |= same
    out[:-1] |= same
    return out


@dataclass(frozen=True, eq=False)
class EvaluationSet:
    """A point set as a read-only int32 code array in ascending order: the
    nonzero points by discrete log, then zero (code q^2-1), if present.
    Sets compare by identity; compare their codes with np.array_equal."""

    tower: FieldTower
    family: str
    codes: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        codes = np.sort(np.asarray(self.codes, dtype=np.int32))
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    def residue_unit(self) -> int:
        """Code of the residue normalizer u of the twist: 1 except for grids,
        which carry (a^q - a)^(t-1)."""
        if self.family == FAMILY_AFFINE_GRID:
            tower, a = self.tower, self.params["anchor_code"]
            return int(tower.vpow(tower.vsub(tower.vfrob(a), a), self.params["t"] - 1))
        return 0


@dataclass(frozen=True, eq=False)
class TwistVector:
    """v_i as a read-only int32 code array, one entry per point of the set;
    compared by identity, like EvaluationSet."""

    tower: FieldTower
    codes: np.ndarray

    def __len__(self):
        return len(self.codes)


def roots_of_unity_set(tower: FieldTower, n: int) -> EvaluationSet:
    """The n roots of x^n - x: the order-(n-1) subgroup plus zero."""
    if n < 2 or (tower.n_units) % (n - 1) != 0:
        raise DivisibilityViolated(f"(n-1) = {n - 1} does not divide q^2-1 = {tower.n_units}")
    codes = np.append(np.arange(0, tower.n_units, tower.n_units // (n - 1)), tower.zero_code)
    return EvaluationSet(tower, FAMILY_ROOTS_OF_UNITY, codes, {"n": n})


def coset_union_set(tower: FieldTower, n: int, t: int, leader_filter: bool = False) -> EvaluationSet:
    """Union of the order-n subgroup, t cosets of it, and zero.

    Cosets live inside V = <t^((q+1)/n1)>, n1 = gcd(n, q+1); the leader for
    exponent e is t^(e*(q+1)/n1).  Cosets are indexed by e mod (q-1)/n2 with
    n2 = n/n1; index 0 is the subgroup itself.  The leaders are the t
    smallest exponents giving fresh cosets.  leader_filter restricts them to
    (q0+1)-th powers inside GF(q), q0 = p^(m/2); that search may exhaust,
    which is reported rather than silently patched.
    """
    q = tower.q
    if n < 1 or tower.n_units % n != 0:
        raise DivisibilityViolated(f"n = {n} does not divide q^2-1 = {tower.n_units}")
    n1 = gcd(n, q + 1)
    n2 = n // n1
    n_cosets = (q - 1) // n2  # index space of cosets of U_n inside V_n
    if t > n_cosets - 1:
        raise TooManyCosets(f"t = {t} exceeds (q-1)/n2 - 1 = {n_cosets - 1}")
    if t < 0:
        raise BadRequest(f"t must be non-negative, got {t}")

    leader_step = (q + 1) // n1  # exponent step of the V generator

    if not leader_filter:
        leaders = list(range(1, t + 1))
    else:
        if tower.m % 2 != 0:
            raise CosetSearchExhausted("q0 sub-tower requires even extension degree m")
        q0 = tower.p ** (tower.m // 2)
        # leader must be a (q0+1)-th power inside GF(q): log divisible by (q+1)(q0+1)
        need = (q + 1) * (q0 + 1)
        leaders = []
        seen = set()
        e = 1
        while len(leaders) < t and e < (q - 1) * n1:
            idx = e % n_cosets
            code = (e * leader_step) % tower.n_units
            if idx != 0 and idx not in seen and code % need == 0:
                leaders.append(e)
                seen.add(idx)
            e += 1
        if len(leaders) < t:
            raise CosetSearchExhausted(
                f"only {len(leaders)} admissible coset leaders exist (needed {t})"
            )

    subgroup = np.arange(0, tower.n_units, tower.n_units // n)
    lead = np.asarray([0] + leaders, dtype=np.int64) * leader_step % tower.n_units
    codes = np.append(tower.vmul(lead[:, None], subgroup[None, :]), tower.zero_code)
    params = {"n": n, "t": t, "leader_exponents": tuple(leaders)}
    es = EvaluationSet(tower, FAMILY_COSET_UNION, codes, params)
    if _repeats(es.codes).any():
        raise LeaderNotInV("leader exponents produced overlapping cosets")
    return es


def affine_grid_set(tower: FieldTower, t: int) -> EvaluationSet:
    """The t*q points u_i*a + u_j over the first t base-field scalars u_i,
    with a = t, the generator (code 1).  They are distinct, since a lies
    outside GF(q)."""
    q = tower.q
    if not 1 <= t <= q:
        raise BadRequest(f"t must be in 1..q, got {t}")
    # enumeration of GF(q): 0 first, then by log ascending
    us = np.append(tower.zero_code, np.arange(0, tower.n_units, q + 1))
    codes = tower.vadd(tower.vmul(us[:t], 1)[:, None], us[None, :])
    return EvaluationSet(tower, FAMILY_AFFINE_GRID, codes.ravel(), {"t": t, "anchor_code": 1})


def explicit_set(tower: FieldTower, codes, tag: str = FAMILY_EXPLICIT) -> EvaluationSet:
    """The points with the given exponent codes, which must be distinct."""
    es = EvaluationSet(tower, tag, codes, {})
    if _repeats(es.codes).any():
        raise ValueError("explicit point set has repeats")
    return es


@functools.cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n above 1, largest first."""
    small = [d for d in range(2, isqrt(n) + 1) if n % d == 0]
    return tuple(sorted({n, *small, *(n // d for d in small)}, reverse=True))


def _stabilizer_step(codes: np.ndarray, n_units: int) -> int:
    """The least s | q^2-1 with nonzero + s = nonzero mod q^2-1, for the
    nonzero codes of an ascending code array: t^s generates the set's
    multiplicative stabilizer.  A set with a repeated point, or with no
    nonzero point, gets q^2-1.

    The stabilizer order d = (q^2-1)/s divides the number of nonzero points,
    so the divisors d of both are tried, largest first.  Shifting by s maps
    the ascending codes onto themselves exactly when code i + size/d is
    code i plus s for every i (codes lie in [0, q^2-1), so nothing wraps
    past the last block); code size/d is tried on its own before the rest.
    """
    size = int(codes.searchsorted(n_units))
    if not size or np.count_nonzero(codes[1:] == codes[:-1]):
        return n_units
    first = codes[0]
    for d in _divisors(n_units):
        if size % d == 0:
            s, r = n_units // d, size // d
            if codes[r] == first + s and not np.count_nonzero(codes[r:size] != codes[: size - r] + s):
                return s
    return n_units


def local_derivatives(eval_set: EvaluationSet) -> np.ndarray:
    """log h'(alpha_i), h'(alpha_i) = prod_{j != i} (alpha_i - alpha_j), for
    every point, as an int64 code array.

    For nonzero a and -b, log(a - b) = a + zech[log(-b) - a].  The j = i term
    reads zech[log(-1)] = log 0 = q^2-1, which is 0 mod q^2-1, so a nonzero
    point's row is (n-1)*a plus the Zech reads over every nonzero point; the
    zero point, if any, contributes just its a.  The Zech row sum is still
    taken over the whole set, but once per orbit of the set's multiplicative
    stabilizer <t^s>, which _stabilizer_step checks on the codes: if S is
    fixed by a -> t^s a, so is -S, and the row of t^s a is the row of a with
    every log(-b) shifted by s, so it has the same sum.  The rows of the
    points in [0, s), one per orbit (every point when s = q^2-1), are
    gathered in blocks of about _GATHER_ENTRIES Zech reads.  A zero point
    gets sum(log(-b)), and every copy of a repeated point gets the zero code.
    """
    tower = eval_set.tower
    n_units = tower.n_units
    codes = eval_set.codes.astype(np.int64)
    nonzero = codes[codes != n_units]
    negs = tower.vneg(nonzero).astype(np.int64)
    reps = nonzero[: len(nonzero) * _stabilizer_step(codes, n_units) // n_units]
    sums = np.empty(len(reps), dtype=np.int64)
    rows = max(1, _GATHER_ENTRIES // max(1, len(negs)))
    for start in range(0, len(reps), rows):
        a = reps[start : start + rows]
        # the table has q^2-1 entries, so mode="wrap" reduces log(-b) - a mod q^2-1
        zechs = tower._zech.take(negs[None, :] - a[:, None], mode="wrap")
        sums[start : start + rows] = zechs.sum(axis=1, dtype=np.int64)
    out = np.empty(len(codes), dtype=np.int64)
    # the nonzero points are the representatives times 1, t^s, t^2s, ...
    shape = (len(nonzero) // max(1, len(reps)), len(reps))
    out[: len(nonzero)].reshape(shape)[:] = sums + (len(codes) - 1) * nonzero.reshape(shape)
    out[len(nonzero) :] = negs.sum()
    out %= n_units
    out[_repeats(codes)] = n_units
    return out


def twist_vector(eval_set: EvaluationSet) -> TwistVector:
    """v_i = norm_preimage(u / h'(alpha_i)), on the whole code array, with u
    the set's residue normalizer, eval_set.residue_unit().

    Raises NotNormValue(i) at the first i where u/h'(alpha_i) is zero,
    undefined or outside GF(q)*, i.e. the self-orthogonality hypothesis
    fails for this point set.
    """
    tower = eval_set.tower
    n_units, norm_exp, u = tower.n_units, tower.q + 1, eval_set.residue_unit()
    h = local_derivatives(eval_set)
    c = (u - h) % n_units  # log(u / h')
    bad = (h == n_units) | (c % norm_exp != 0) | (u == n_units)
    if bad.any():
        raise NotNormValue(int(np.argmax(bad)))
    codes = (c // norm_exp).astype(np.int32)
    codes.flags.writeable = False
    return TwistVector(tower, codes)
