"""Curve families, their rational-point fibers, and one-point monomial bases.

Five families share one interface: a supersingular elliptic curve in even
characteristic, the hyperelliptic curve y^2+y = x^(q+1), the Hermitian curve
y^q+y = x^(q+1), its half-exponent variant y^q+y = x^((q+1)/2), and
Artin-Schreier curves y^q-y = x^t.  Codes on the projective line take their
points from the point-set module directly.  Riemann-Roch spaces of
(k-1)*P_inf are represented purely by monomial exponent pairs (i, j) inside
the Weierstrass semigroup at P_inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

import numpy as np

from .errors import (
    BadCharacteristic,
    BadRequest,
    EmptyFiber,
    GcdConditionViolated,
    UnsupportedFamily,
)
from .fields import AdditiveMap, FieldTower
from .points import EvaluationSet, explicit_set, roots_of_unity_set


class CurveFamily(Enum):
    ELLIPTIC = "elliptic"
    HYPERELLIPTIC = "hyperelliptic"
    HERMITIAN = "hermitian"
    SEMI_HERMITIAN = "semi_hermitian"
    ARTIN_SCHREIER = "artin_schreier"


@dataclass(frozen=True)
class CurveSpec:
    family: CurveFamily
    tower: FieldTower
    genus: int
    pole_x: int
    pole_y: int
    y_degree: int
    t: int | None = None
    c: int | None = None  # exponent code of the elliptic constant

    def label(self) -> str:
        extra = ""
        if self.t is not None:
            extra = f"(t={self.t})"
        if self.c is not None:
            extra = f"(c={self.tower.format(self.c)})"
        return f"{self.family.value}{extra}"


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered exponent pairs (i, j) for x^i y^j, sorted by pole order."""

    monomials: tuple
    pole_x: int
    pole_y: int

    def __len__(self):
        return len(self.monomials)


def absolute_trace(tower: FieldTower, codes) -> np.ndarray:
    """Trace from GF(p^{2m}) down to GF(p) of every code in an array."""
    acc = cur = np.asarray(codes, dtype=np.int32)
    for _ in range(2 * tower.m - 1):
        cur = tower.vpow(cur, tower.p)
        acc = tower.vadd(acc, cur)
    return acc


def semigroup_gap_count(a: int, b: int) -> int:
    """Number of gaps of the numerical semigroup <a, b> (gcd(a,b)=1)."""
    if gcd(a, b) != 1:
        raise ValueError("generators must be coprime")
    bound = a * b - a - b + 1
    reachable = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for g in (a, b):
                v = s + g
                if v <= bound + max(a, b) and v not in reachable:
                    reachable.add(v)
                    nxt.append(v)
        frontier = nxt
    return sum(1 for v in range(1, bound + 1) if v not in reachable)


def _default_elliptic_constant(tower: FieldTower) -> int:
    # degree of the top field over GF(2) is 2m: constant is 0 when 2m = 2 mod 4,
    # otherwise the smallest generator power with absolute trace 1
    if tower.m % 2 == 1:
        return tower.zero_code
    trace = absolute_trace(tower, np.arange(tower.q2))
    return int(np.flatnonzero(trace == 0)[0])  # code 0 is the element 1


def curve(family: CurveFamily, tower: FieldTower, t: int | None = None) -> CurveSpec:
    q = tower.q
    if family is CurveFamily.ELLIPTIC:
        if tower.p != 2:
            raise BadCharacteristic("elliptic family needs characteristic 2")
        return CurveSpec(
            family, tower, genus=1, pole_x=2, pole_y=3, y_degree=2, c=_default_elliptic_constant(tower)
        )
    if family is CurveFamily.HYPERELLIPTIC:
        if tower.p != 2:
            raise BadCharacteristic("hyperelliptic family needs characteristic 2")
        return CurveSpec(family, tower, genus=q // 2, pole_x=2, pole_y=q + 1, y_degree=2)
    if family is CurveFamily.HERMITIAN:
        return CurveSpec(
            family, tower, genus=q * (q - 1) // 2, pole_x=q, pole_y=q + 1, y_degree=q
        )
    if family is CurveFamily.SEMI_HERMITIAN:
        if q % 2 == 0:
            raise BadCharacteristic("half-exponent Hermitian family needs odd q")
        return CurveSpec(
            family,
            tower,
            genus=(q - 1) ** 2 // 4,
            pole_x=q,
            pole_y=(q + 1) // 2,
            y_degree=q,
        )
    if family is CurveFamily.ARTIN_SCHREIER:
        if t is None or t < 1:
            raise BadRequest(f"Artin-Schreier family needs a positive exponent t, got {t}")
        if q % 2 == 1:
            if ((q + 1) // 2) % gcd(t, q + 1) != 0:
                raise GcdConditionViolated("gcd(t, q+1) must divide (q+1)/2")
        elif t % 2 == 0:
            raise GcdConditionViolated("even q needs odd t")
        return CurveSpec(
            family,
            tower,
            genus=(q - 1) * (t - 1) // 2,
            pole_x=q,
            pole_y=t,
            y_degree=q,
            t=t,
        )
    raise UnsupportedFamily(str(family))


def x_support(spec: CurveSpec, selector: EvaluationSet | None = None) -> EvaluationSet:
    """Admissible x-coordinates (x-values whose fiber is full).

    Hyperelliptic and Hermitian curves take a caller-supplied subset of the
    plane (any point-set family); the default is the full field.  The other
    families have a canonical support.
    """
    tower = spec.tower
    if spec.family in (CurveFamily.HYPERELLIPTIC, CurveFamily.HERMITIAN):
        if selector is not None:
            return selector
        return roots_of_unity_set(tower, tower.q2)
    if selector is not None:
        raise UnsupportedFamily(f"{spec.family.value} has a fixed x-support")
    if spec.family is CurveFamily.SEMI_HERMITIAN:
        # squares of GF(q^2) = roots of x^((q^2+1)/2) - x
        return roots_of_unity_set(tower, (tower.q2 + 1) // 2)
    # x is admissible where the right-hand side lies in the image of the map
    x = np.arange(tower.q2)
    rhs = _fiber_rhs(spec, x)[1]
    if spec.family is CurveFamily.ELLIPTIC:  # image of y^2+y: absolute trace zero
        return explicit_set(
            tower, x[absolute_trace(tower, rhs) == tower.zero_code], tag="elliptic_trace_zero"
        )
    # Artin-Schreier, image of y^q-y: relative trace zero
    trace = tower.vadd(rhs, tower.vfrob(rhs))
    return explicit_set(tower, x[trace == tower.zero_code], tag="artin_schreier_trace_zero")


def _fiber_rhs(spec: CurveSpec, x) -> tuple[AdditiveMap, np.ndarray]:
    """The additive map A and the codes of A(y) over each x code: the curve is A(y) = rhs(x)."""
    tower, q = spec.tower, spec.tower.q
    if spec.family is CurveFamily.ELLIPTIC:
        return AdditiveMap.SQUARE_PLUS_Y, tower.vadd(tower.vpow(x, 3), spec.c)
    if spec.family is CurveFamily.HYPERELLIPTIC:
        return AdditiveMap.SQUARE_PLUS_Y, tower.vpow(x, q + 1)
    if spec.family is CurveFamily.HERMITIAN:
        return AdditiveMap.FROB_PLUS_Y, tower.vpow(x, q + 1)
    if spec.family is CurveFamily.SEMI_HERMITIAN:
        return AdditiveMap.FROB_PLUS_Y, tower.vpow(x, (q + 1) // 2)
    if spec.family is CurveFamily.ARTIN_SCHREIER:
        return AdditiveMap.FROB_MINUS_Y, tower.vpow(x, spec.t)
    raise UnsupportedFamily(str(spec.family))


def rational_points(spec: CurveSpec, xs: EvaluationSet) -> tuple[np.ndarray, np.ndarray]:
    """The rational points above an x-set, as (owner, y): the fibers of the
    set's points one after another, in set order, each in ascending y code;
    point j is (xs.codes[owner[j]], y[j]).  Raises EmptyFiber at the first x
    outside the admissible set.
    """
    owner, y = spec.tower.solve_additive(*_fiber_rhs(spec, xs.codes))
    empty = np.bincount(owner, minlength=xs.n) == 0
    if empty.any():
        x0 = spec.tower.format(int(xs.codes[np.argmax(empty)]))
        raise EmptyFiber(f"x = {x0} is outside the admissible set")
    return owner, y


def rr_basis(spec: CurveSpec, k: int) -> MonomialBasis:
    """Monomials x^i y^j with pole order <= k-1 at P_inf, 0 <= j < y_degree."""
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = k - 1
    monos = []
    for j in range(spec.y_degree):
        base = spec.pole_y * j
        if base > bound:
            continue
        i = 0
        while base + spec.pole_x * i <= bound:
            monos.append((i, j))
            i += 1
    monos.sort(key=lambda ij: (spec.pole_x * ij[0] + spec.pole_y * ij[1], ij[1]))
    return MonomialBasis(tuple(monos), spec.pole_x, spec.pole_y)


def monomial_count(spec: CurveSpec, k: int) -> int:
    """len(rr_basis(spec, k)), counted a power y^j at a time without listing
    the monomials."""
    rooms = (k - 1 - spec.pole_y * j for j in range(spec.y_degree))  # pole order left for x^i
    return sum(room // spec.pole_x + 1 for room in rooms if room >= 0)
