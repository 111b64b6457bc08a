"""Curve families, their rational-point fibers, and one-point monomial bases.

Every curve is one equation A(y) = x^e + c, with A an additive map (y^2+y,
y^q+y or y^q-y) and c zero except on the elliptic curve.  The five families
only name their (A, e, c): a supersingular elliptic curve y^2+y = x^3 + c in
even characteristic, the hyperelliptic curve y^2+y = x^(q+1), the Hermitian
curve y^q+y = x^(q+1), its half-exponent variant y^q+y = x^((q+1)/2), and
Artin-Schreier curves y^q-y = x^t.  Pole orders and genus are read from the
equation (CurveSpec), and x-supports and fibers from A's fibers at x^e + c;
closed forms from the theory (trace zero, squares) show up only as test
oracles.  Codes on the projective line take their points from the point-set
module directly.  Riemann-Roch spaces of (k-1)*P_inf are represented purely
by monomial exponent pairs (i, j) inside the Weierstrass semigroup at P_inf.
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
from .points import EvaluationSet, explicit_set


class CurveFamily(Enum):
    ELLIPTIC = "elliptic"
    HYPERELLIPTIC = "hyperelliptic"
    HERMITIAN = "hermitian"
    SEMI_HERMITIAN = "semi_hermitian"
    ARTIN_SCHREIER = "artin_schreier"


@dataclass(frozen=True)
class CurveSpec:
    """The curve A(y) = x^e + c, stored as its equation: the additive map
    amap, e = pole_y, and the code of c, None but on the elliptic curve (t is
    the Artin-Schreier exponent, None elsewhere).  pole_x is the degree of A,
    and genus is (pole_x-1)(pole_y-1)/2 (Stichtenoth, Algebraic Function
    Fields and Codes, 3.7), which needs gcd(pole_x, pole_y) = 1: an
    Artin-Schreier t with p | t breaks that, and still gets the formula."""

    family: CurveFamily
    tower: FieldTower
    amap: AdditiveMap
    pole_y: int
    t: int | None = None
    c: int | None = None

    @property
    def pole_x(self) -> int:
        return 2 if self.amap is AdditiveMap.SQUARE_PLUS_Y else self.tower.q

    @property
    def genus(self) -> int:
        return (self.pole_x - 1) * (self.pole_y - 1) // 2

    def label(self) -> str:
        extra = ""
        if self.t is not None:
            extra = f"(t={self.t})"
        if self.c is not None:
            extra = f"(c={self.tower.format(self.c)})"
        return f"{self.family.value}{extra}"


def _default_elliptic_constant(tower: FieldTower) -> int:
    # degree of the top field over GF(2) is 2m: constant is 0 when 2m = 2 mod 4,
    # otherwise the least code outside the image of y^2+y (absolute trace 1)
    if tower.m % 2 == 1:
        return tower.zero_code
    return int(np.argmin(tower.fiber_sizes(AdditiveMap.SQUARE_PLUS_Y, np.arange(tower.q2))))


def curve(family: CurveFamily, tower: FieldTower, t: int | None = None) -> CurveSpec:
    q = tower.q
    if family is CurveFamily.ELLIPTIC:
        if tower.p != 2:
            raise BadCharacteristic("elliptic family needs characteristic 2")
        return CurveSpec(family, tower, AdditiveMap.SQUARE_PLUS_Y, 3, c=_default_elliptic_constant(tower))
    if family is CurveFamily.HYPERELLIPTIC:
        if tower.p != 2:
            raise BadCharacteristic("hyperelliptic family needs characteristic 2")
        return CurveSpec(family, tower, AdditiveMap.SQUARE_PLUS_Y, q + 1)
    if family is CurveFamily.HERMITIAN:
        return CurveSpec(family, tower, AdditiveMap.FROB_PLUS_Y, q + 1)
    if family is CurveFamily.SEMI_HERMITIAN:
        if q % 2 == 0:
            raise BadCharacteristic("half-exponent Hermitian family needs odd q")
        return CurveSpec(family, tower, AdditiveMap.FROB_PLUS_Y, (q + 1) // 2)
    if family is CurveFamily.ARTIN_SCHREIER:
        if t is None or t < 1:
            raise BadRequest(f"Artin-Schreier family needs a positive exponent t, got {t}")
        if q % 2 == 1:
            if ((q + 1) // 2) % gcd(t, q + 1) != 0:
                raise GcdConditionViolated("gcd(t, q+1) must divide (q+1)/2")
        elif t % 2 == 0:
            raise GcdConditionViolated("even q needs odd t")
        return CurveSpec(family, tower, AdditiveMap.FROB_MINUS_Y, t, t=t)
    raise UnsupportedFamily(str(family))


def x_support(spec: CurveSpec, selector: EvaluationSet | None = None) -> EvaluationSet:
    """Admissible x-coordinates: by default every x whose fiber is nonempty
    (and so full, a kernel coset of A), read from the fiber sizes alone.

    Hyperelliptic and Hermitian curves take a caller-supplied subset of the
    plane (any point-set family) instead; the other families reject one.
    """
    if selector is not None:
        if spec.family not in (CurveFamily.HYPERELLIPTIC, CurveFamily.HERMITIAN):
            raise UnsupportedFamily(f"{spec.family.value} has a fixed x-support")
        return selector
    x = np.arange(spec.tower.q2)
    sizes = spec.tower.fiber_sizes(spec.amap, _right_side(spec, x))
    return explicit_set(spec.tower, x[sizes > 0])


def _right_side(spec: CurveSpec, x) -> np.ndarray:
    """The codes of x^e + c for the x codes."""
    rhs = spec.tower.vpow(x, spec.pole_y)
    return rhs if spec.c is None else spec.tower.vadd(rhs, spec.c)


def on_curve(spec: CurveSpec, x, y) -> bool:
    """Does every point (x[l], y[l]) satisfy A(y) = x^e + c?"""
    return bool(np.array_equal(spec.tower.additive_image(spec.amap, y), _right_side(spec, x)))


def rational_points(spec: CurveSpec, xs: EvaluationSet) -> tuple[np.ndarray, np.ndarray]:
    """The rational points above an x-set, as (owner, y): the fibers of the
    set's points one after another, in set order, each in ascending y code;
    point j is (xs.codes[owner[j]], y[j]).  Raises EmptyFiber at the first x
    outside the admissible set.
    """
    owner, y = spec.tower.solve_additive(spec.amap, _right_side(spec, xs.codes))
    # np.bincount: np.unique imports numpy.ma on its first call
    empty = np.bincount(owner, minlength=xs.n) == 0
    if empty.any():
        x0 = spec.tower.format(int(xs.codes[np.argmax(empty)]))
        raise EmptyFiber(f"x = {x0} is outside the admissible set")
    return owner, y


def rr_basis(spec: CurveSpec, k: int) -> tuple:
    """Exponent pairs (i, j) of the monomials x^i y^j with pole order
    i*pole_x + j*pole_y <= k-1 at P_inf, 0 <= j < pole_x, sorted by pole order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = k - 1
    monos = []
    for j in range(spec.pole_x):
        base = spec.pole_y * j
        if base > bound:
            continue
        i = 0
        while base + spec.pole_x * i <= bound:
            monos.append((i, j))
            i += 1
    monos.sort(key=lambda ij: (spec.pole_x * ij[0] + spec.pole_y * ij[1], ij[1]))
    return tuple(monos)


def monomial_count(spec: CurveSpec, k: int) -> int:
    """len(rr_basis(spec, k)), counted a power y^j at a time without listing
    the monomials."""
    rooms = (k - 1 - spec.pole_y * j for j in range(spec.pole_x))  # pole order left for x^i
    return sum(room // spec.pole_x + 1 for room in rooms if room >= 0)
