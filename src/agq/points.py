"""Evaluation point sets on the projective line and their twist vectors.

Four families: roots of x^n - x, unions of multiplicative-subgroup cosets,
affine grids u_i*a + u_j, and explicit sets.  Local derivative values
h'(alpha_i) are always the pairwise product over the set, never a closed
form; closed forms from the underlying theory show up only as test oracles.
The product is taken as a sum of discrete logs over exponent codes, with
one Zech-table read per pair, and twist vectors are computed on codes too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from .errors import (
    AnchorInSubfield,
    CosetSearchExhausted,
    DuplicatePoints,
    DivisibilityViolated,
    LeaderNotInV,
    NotNormValue,
    TooManyCosets,
)
from .fields import FieldElement, FieldTower

FAMILY_ROOTS_OF_UNITY = "roots_of_unity"
FAMILY_COSET_UNION = "coset_union"
FAMILY_AFFINE_GRID = "affine_grid"
FAMILY_EXPLICIT = "explicit"


def _canonical_order(points):
    """Nonzero points by discrete log ascending, zero (if present) last."""
    nonzero = sorted((p for p in points if not p.is_zero()), key=lambda el: el.code)
    zero = [p for p in points if p.is_zero()]
    return tuple(nonzero + zero)


@dataclass(frozen=True)
class EvaluationSet:
    tower: FieldTower
    family: str
    points: tuple
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.points)

    def default_unit_scalar(self) -> FieldElement:
        """Residue normalizer: 1 except for grids, which carry (a^q - a)^(t-1)."""
        if self.family == FAMILY_AFFINE_GRID:
            anchor = self.tower.element(self.params["anchor_code"])
            t = self.params["t"]
            return (anchor.frobenius() - anchor) ** (t - 1)
        return self.tower.one()

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {k: v for k, v in self.params.items()},
            "points": [self.tower.format(p) for p in self.points],
        }


@dataclass(frozen=True)
class TwistVector:
    tower: FieldTower
    values: tuple
    unit_scalar: FieldElement

    def __len__(self):
        return len(self.values)

    def codes(self):
        return self.tower.varray(self.values)


def roots_of_unity_set(tower: FieldTower, n: int) -> EvaluationSet:
    """The n roots of x^n - x: the order-(n-1) subgroup plus zero."""
    if n < 2 or (tower.n_units) % (n - 1) != 0:
        raise DivisibilityViolated(f"(n-1) = {n - 1} does not divide q^2-1 = {tower.n_units}")
    step = tower.n_units // (n - 1)
    pts = [tower.element(j * step) for j in range(n - 1)] + [tower.zero()]
    return EvaluationSet(tower, FAMILY_ROOTS_OF_UNITY, _canonical_order(pts), {"n": n})


def coset_union_set(
    tower: FieldTower,
    n: int,
    t: int,
    leader_exponents: tuple[int, ...] | None = None,
    leader_filter: str | None = None,
) -> EvaluationSet:
    """Union of the order-n subgroup, t cosets of it, and zero.

    Cosets live inside V = <t^((q+1)/n1)>, n1 = gcd(n, q+1); the leader for
    exponent e is t^(e*(q+1)/n1).  Cosets are indexed by e mod (q-1)/n2 with
    n2 = n/n1; index 0 is the subgroup itself.  Default leaders are the t
    smallest exponents giving fresh cosets.  leader_filter="q0_power"
    restricts leaders to (q0+1)-th powers inside GF(q), q0 = p^(m/2); the
    search may exhaust, which is reported rather than silently patched.
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
        raise ValueError("t must be non-negative")

    leader_step = (q + 1) // n1  # exponent step of the V generator

    if leader_exponents is not None:
        if len(leader_exponents) != t:
            raise LeaderNotInV(f"expected {t} leader exponents, got {len(leader_exponents)}")
        seen = set()
        for e in leader_exponents:
            idx = e % n_cosets
            if idx == 0:
                raise LeaderNotInV(f"leader exponent {e} lands in the base subgroup")
            if idx in seen:
                raise LeaderNotInV(f"leader exponent {e} duplicates an earlier coset")
            seen.add(idx)
        leaders = list(leader_exponents)
    elif leader_filter is None:
        leaders = list(range(1, t + 1))
    elif leader_filter == "q0_power":
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
    else:
        raise ValueError(f"unknown leader filter {leader_filter!r}")

    subgroup_step = tower.n_units // n
    pts = [tower.element(j * subgroup_step) for j in range(n)]
    for e in leaders:
        lead = e * leader_step
        pts.extend(tower.element(lead + j * subgroup_step) for j in range(n))
    pts.append(tower.zero())
    if len(set(p.code for p in pts)) != len(pts):
        raise LeaderNotInV("leader exponents produced overlapping cosets")
    params = {"n": n, "t": t, "leader_exponents": tuple(leaders)}
    return EvaluationSet(tower, FAMILY_COSET_UNION, _canonical_order(pts), params)


def affine_grid_set(
    tower: FieldTower, t: int, anchor: FieldElement | None = None
) -> EvaluationSet:
    """The t*q points u_i*a + u_j over the first t base-field scalars u_i."""
    q = tower.q
    if not 1 <= t <= q:
        raise ValueError(f"t must be in 1..q, got {t}")
    if anchor is None:
        anchor = tower.gen()
    if anchor.in_base_field():
        raise AnchorInSubfield(f"anchor {tower.format(anchor)} lies in GF({q})")
    subfield = list(tower.subfield_elements())
    # enumeration of GF(q): 0 first, then by log ascending
    us = [subfield[-1]] + subfield[:-1]
    pts = [us[i] * anchor + us[j] for i in range(t) for j in range(q)]
    if len(set(p.code for p in pts)) != t * q:
        raise DuplicatePoints(f"grid points u_i*a + u_j repeat for anchor {tower.format(anchor)}")
    params = {"t": t, "anchor_code": anchor.code}
    return EvaluationSet(tower, FAMILY_AFFINE_GRID, _canonical_order(pts), params)


def explicit_set(tower: FieldTower, points, tag: str = FAMILY_EXPLICIT) -> EvaluationSet:
    pts = _canonical_order(tuple(points))
    if len(set(p.code for p in pts)) != len(pts):
        raise ValueError("explicit point set has repeats")
    return EvaluationSet(tower, tag, pts, {})


def local_derivatives(eval_set: EvaluationSet) -> tuple:
    """h'(alpha_i) = prod_{j != i} (alpha_i - alpha_j), as a log-sum over codes.

    For nonzero a and -b, log(a - b) = log a + zech[log(-b) - log a].  The
    j = i term reads zech[log(-1)] = log 0 = q^2-1, which is 0 mod q^2-1, so
    each row sums over every nonzero point; a zero point adds log a.  A
    repeated point makes its own h' zero.
    """
    tower = eval_set.tower
    n_units, zech = tower.n_units, tower._zech_view
    codes = [p.code for p in eval_set.points]
    negs = [tower._neg_code(c) for c in codes if c != n_units]
    repeats = Counter(codes)
    out = []
    for a in codes:
        if a == n_units:
            log_sum = sum(negs)
        else:
            log_sum = (len(codes) - 1) * a + sum([zech[(b - a) % n_units] for b in negs])
        out.append(FieldElement(tower, n_units if repeats[a] > 1 else log_sum % n_units))
    return tuple(out)


def twist_vector(
    eval_set: EvaluationSet, unit_scalar: FieldElement | None = None
) -> TwistVector:
    """v_i = norm_preimage(unit_scalar / h'(alpha_i)), on codes.

    Raises NotNormValue(i) at the first i where unit_scalar/h'(alpha_i) is
    zero, undefined or outside GF(q)*, i.e. the self-orthogonality
    hypothesis fails for this point set.
    """
    tower = eval_set.tower
    if unit_scalar is None:
        unit_scalar = eval_set.default_unit_scalar()
    n_units, norm_exp, u = tower.n_units, tower.q + 1, unit_scalar.code
    values = []
    for i, h in enumerate(local_derivatives(eval_set)):
        c = (u - h.code) % n_units  # log(unit_scalar / h')
        if u == n_units or h.is_zero() or c % norm_exp:
            raise NotNormValue(i)
        values.append(FieldElement(tower, c // norm_exp))
    return TwistVector(tower, tuple(values), unit_scalar)
