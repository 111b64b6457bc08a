"""End-to-end pipelines: point set -> twist -> basis -> code -> certificates.

Every returned Certificate has an all-zero Hermitian Gram matrix, and its
trace, designed distance, evaluation set and build time record the pipeline,
written onto the record certify returned: each chain member is one object.
A construction whose hypotheses fail surfaces as GramNonzero (or an upstream
error), never as an uncertified code.  Embedding steps are accepted by
re-certification, not by case analysis: the case split is recorded in the
trace as an explanation only.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from math import gcd
from time import perf_counter

import numpy as np

from .codes import (
    Certificate,
    LinearCode,
    certify,
    evaluation_code,
    grs_rows,
    hermitian_gram,  # noqa: F401 -- bound here too; agqbench's tracer test wraps this binding
)
from .curves import CurveFamily, CurveSpec, curve, monomial_count, rational_points, rr_basis, x_support
from .errors import (
    BadRequest,
    DivisibilityViolated,
    EmbeddingRejected,
    GramNonzero,
    RankDefect,
)
from .fields import FieldTower, build_tower, norm_preimage
from .points import (
    EvaluationSet,
    affine_grid_set,
    coset_union_set,
    roots_of_unity_set,
    twist_vector,
)

@dataclass(frozen=True)
class ConstructionRequest:
    construction: str
    p: int
    m: int
    n: int | None = None
    t: int | None = None
    k: int | None = None
    embed: str = "none"  # a key of _EMBED_STEPS


@dataclass(frozen=True)
class Construction:
    needs: tuple[str, ...] = ()  # of n and t; every construction takes k, and no field it does not need
    swept: str | None = None  # the field `agq scan` sweeps when the command line leaves it unset
    values: Callable[[FieldTower], Iterable[int]] | None = None  # the swept field's values over a tower
    scan_embeds: bool = True  # False: a scan builds the base code alone, whatever --embed says


CONSTRUCTIONS = {
    "c1": Construction(("n",), "n", lambda tw: [n for n in range(3, tw.q2 + 1) if tw.n_units % (n - 1) == 0]),
    "c2": Construction(("n", "t")),
    "c3": Construction(("n", "t")),
    "c4": Construction(("t",), "t", lambda tw: range(1, tw.q + 1)),
    "c5": Construction((), "k", lambda tw: range(2, tw.q + 2), scan_embeds=False),
    "c6": Construction(("n",), scan_embeds=False),
    "c7i": Construction(("n",), scan_embeds=False),
    "c7ii": Construction(("n", "t"), scan_embeds=False),
    "c7iii": Construction(("t",), scan_embeds=False),
    "c8": Construction(scan_embeds=False),
    "c9": Construction(("t",), "t", lambda tw: range(2, tw.q + 2), scan_embeds=False),
    "c10": Construction(("t",), "t", lambda tw: range(2, tw.q + 2), scan_embeds=False),
}


def _line_chain_member(eval_set: EvaluationSet, g: np.ndarray, trace: tuple) -> Certificate:
    """The certified code of g: GRS rows on eval_set's points, and the unit
    columns that embedding steps appended after them, if any."""
    code = LinearCode(eval_set.tower, g)
    cert = certify(code)
    cert.trace = trace
    # restricted to its eval_set.n core columns C is a GRS [n0, k] code, and
    # the restriction is injective, so d(C) >= n0 - k + 1
    cert.designed_distance = eval_set.n - code.k + 1
    cert.eval_set = eval_set
    return cert


def _curve_pipeline(spec: CurveSpec, xs: EvaluationSet, k: int, trace: tuple) -> Certificate:
    tv = twist_vector(xs)
    owner, y = rational_points(spec, xs)
    if k >= len(owner) + 2 * spec.genus:
        # the basis holds x^i y^j for every i < xs.n and j < pole_x, and these
        # separate the points (an x-fiber has at most pole_x of them): the
        # rows would span GF(q^2)^n, so the rank is n, short of the basis size
        raise RankDefect(len(owner), monomial_count(spec, k))
    basis = rr_basis(spec, k)
    # fiber-constant twist: each x-value's multiplier repeats across its fiber
    cert = certify(evaluation_code(spec, basis, xs.codes[owner], y, tv[owner]))
    cert.trace = trace + (
        f"curve {spec.label()} genus {spec.genus}",
        f"x-support size {xs.n}, rational points {len(owner)}",
        f"monomials {list(basis)}",
    )
    cert.designed_distance = len(owner) - (k - 1)
    return cert


def thm_key_k_max(n_points: int, q: int, genus: int) -> int:
    return (n_points + q + 2 * genus - 1) // (q + 1)


def construct(request: ConstructionRequest) -> Certificate:
    """Run the full pipeline for one request (embedding policy applied)."""
    return construct_chain(request)[-1]


# the embedding steps each policy takes past its base code; None is no limit
_EMBED_STEPS = {"none": 0, "once": 1, "iterate": None, "deep": 1}


def construct_chain(request: ConstructionRequest) -> list[Certificate]:
    """Like construct, but returns every chain member the policy produced, each
    with its own build-and-certify time as build_s.  A rejected embedding step
    rejects an "once" request and ends any other policy's chain, whose last
    member's trace then ends with the reason, such as "not MDS"."""
    start = perf_counter()
    if request.k is not None and request.k < 1:
        raise BadRequest(f"k must be at least 1, got {request.k}")
    if request.embed not in _EMBED_STEPS:
        raise BadRequest(f"unknown embedding policy {request.embed!r}")
    tower = build_tower(request.p, request.m)
    chain = [_construct_base(request, tower)]
    chain[0].build_s = perf_counter() - start
    steps = _EMBED_STEPS[request.embed]
    while steps is None or len(chain) <= steps:
        try:
            chain.append(embed_once(chain[-1]))
        except EmbeddingRejected as exc:
            if request.embed == "once":
                raise
            chain[-1].trace += (f"chain ends: {exc}",)
            break
    return chain


def _deep_request(request: ConstructionRequest, q: int) -> tuple[ConstructionRequest, tuple]:
    """A deep request as the c1 request of its base code, n = t(q-1)+1,
    k'' = floor(n/2t) and no t, with that code's trace; each of deep's rules
    that fails raises its own error."""
    if request.construction != "c1" or request.k is not None:
        raise BadRequest("deep embedding builds its own c1 code: it takes construction c1 and no k")
    if request.t is None and (request.n is None or (request.n - 1) % (q - 1) != 0):
        raise DivisibilityViolated("deep embedding needs t, or n of the form t(q-1)+1")
    t = (request.n - 1) // (q - 1) if request.t is None else request.t
    n = t * (q - 1) + 1
    if request.n not in (None, n):
        raise DivisibilityViolated(f"n = {request.n} is not t(q-1)+1 = {n}")
    if t < 1:
        raise BadRequest(f"t must be positive, got {t}")
    if (q + 1) % t != 0:
        raise DivisibilityViolated(f"t = {t} does not divide q+1 = {q + 1}")
    k2 = n // (2 * t)
    if k2 == 0:
        raise BadRequest(f"k'' = floor(n/2t) = floor({n}/{2 * t}) is 0")
    return replace(request, n=n, t=None, k=k2), (
        f"deep: n = t(q-1)+1 = {n}, k'' = floor(n/2t) = {k2}",
        f"deep case: (n-1) {'divides' if (k2 * (q + 1)) % (n - 1) == 0 else 'does not divide'} "
        f"k''(q+1) = {k2 * (q + 1)}",
    )


def _construct_base(request: ConstructionRequest, tower: FieldTower) -> Certificate:
    """The base code of a request, a deep one's by _deep_request's rules.  Its name must be in
    CONSTRUCTIONS, with each field that entry needs set and no other n or t, else BadRequest."""
    q = tower.q
    cons = request.construction
    request, trace = _deep_request(request, q) if request.embed == "deep" else (request, None)
    entry = CONSTRUCTIONS.get(cons)
    if entry is None:
        raise BadRequest(f"unknown construction {cons!r}")
    if any(getattr(request, field) is None for field in entry.needs):
        raise BadRequest(f"{cons} needs {' and '.join(entry.needs)}")
    for field in ("n", "t"):
        if field not in entry.needs and getattr(request, field) is not None:
            raise BadRequest(f"{cons} takes no {field}")

    if cons in ("c1", "c2", "c3", "c4"):
        if cons == "c1":
            es = roots_of_unity_set(tower, request.n)
            trace = trace or (f"c1: roots of x^{request.n} - x",)
        elif cons == "c2":
            if request.n < 1 or (q - 1) % request.n != 0:
                raise DivisibilityViolated(
                    f"c2 needs n | q-1 (subgroup inside GF({q})); n={request.n}"
                )
            es = coset_union_set(tower, request.n, request.t, leader_filter=True)
            trace = (
                f"c2: subgroup of order {request.n} in GF({q}) plus {request.t} "
                f"norm-power coset(s), leaders e={list(es.params['leader_exponents'])}",
            )
        elif cons == "c3":
            es = coset_union_set(tower, request.n, request.t)
            trace = (
                f"c3: order-{request.n} subgroup plus {request.t} coset(s), "
                f"leaders e={list(es.params['leader_exponents'])}",
            )
        else:
            es = affine_grid_set(tower, request.t)
            trace = (f"c4: affine grid t={request.t} anchor {tower.format(es.params['anchor_code'])}",)
        tv = twist_vector(es)
        k = request.k if request.k is not None else thm_key_k_max(es.n, q, 0)
        if k > es.n:
            # the rows v_l * alpha_l^i on n distinct points have rank n
            raise RankDefect(es.n, k)
        b_values = [((q + 1) * j) % (es.n - 1) for j in range(k)] if es.n > 1 else []
        trace += (f"B(j) residues for j=1..{k}: {b_values}",)
        return _line_chain_member(es, grs_rows(tower, es, tv, range(k)), trace)

    if cons == "c5":
        spec = curve(CurveFamily.ELLIPTIC, tower)
        xs = x_support(spec)
        trace = (f"c5: elliptic constant {tower.format(spec.c)}, |U_c| = {xs.n}",)
    elif cons == "c6":
        spec = curve(CurveFamily.HYPERELLIPTIC, tower)
        xs = x_support(spec, roots_of_unity_set(tower, request.n))
        trace = (f"c6: hyperelliptic over roots of x^{request.n} - x",)
    elif cons in ("c7i", "c7ii", "c7iii"):
        spec = curve(CurveFamily.HERMITIAN, tower)
        if cons == "c7i":
            sel = roots_of_unity_set(tower, request.n)
        elif cons == "c7ii":
            sel = coset_union_set(tower, request.n, request.t)
        else:
            sel = affine_grid_set(tower, request.t)
        xs = x_support(spec, sel)
        trace = (f"c7 case {cons[2:]}: Hermitian over {sel.family} x-set of size {xs.n}",)
    elif cons == "c8":
        spec = curve(CurveFamily.SEMI_HERMITIAN, tower)
        xs = x_support(spec)
        trace = (f"c8: half-exponent Hermitian, {xs.n} square x-values",)
    else:  # c9, c10
        spec = curve(CurveFamily.ARTIN_SCHREIER, tower, t=request.t)
        xs = x_support(spec)
        s = gcd(request.t * (q - 1), (q + 1) * (q - 1))
        trace = (f"{cons}: Artin-Schreier t={request.t}, s={s}, {xs.n} x-values",)

    n_pts = spec.pole_x * xs.n  # every admissible x carries a full fiber of deg A points
    k = request.k if request.k is not None else thm_key_k_max(n_pts, q, spec.genus)
    return _curve_pipeline(spec, xs, k, trace)


def embed_once(cert: Certificate) -> Certificate:
    """One embedding step: append the next power row, certified by Gram.

    The candidate either keeps the length (when the new row pairs to zero
    with itself) or extends by one column whose single entry c satisfies
    c^(q+1) = -<new,new>_H; with <new,new>_H = 1 that is the classical
    alpha^(q+1) = -1 column.  The self-pairing decides which shape can work;
    acceptance is always the full Gram oracle plus a rank check.  The member
    is a record of its own, and cert is left unchanged.
    """
    start = perf_counter()
    if cert.eval_set is None:
        raise EmbeddingRejected("embedding needs a recorded genus-0 evaluation chain")
    if cert.mds is not True:
        why = "not MDS" if cert.mds is False else "MDS undecided under the budget"
        raise EmbeddingRejected(f"embedding needs an MDS input code: {why}")
    tower = cert.code.tower
    q = tower.q
    k = cert.code.k
    n = cert.code.n
    notes = []
    if k * (q + 1) > n + q - 1:
        # outside the one-shot guarantee range; deep-dimension and long chains
        # live here and are accepted purely by the re-certification below
        notes.append(f"embed: k(q+1) = {k * (q + 1)} > n+q-1 = {n + q - 1}")
    if k * (q + 1) == n - 1:
        case = f"k(q+1) = n-1 = {n - 1} (extension case)"
    elif k * (q + 1) == n - 1 + q:
        case = f"k(q+1) = n-1+q = {n - 1 + q} (excluded case)"
    else:
        case = f"k(q+1) = {k * (q + 1)} avoids n-1 = {n - 1} and n-1+q = {n - 1 + q}"

    # row k is row k-1 times the points on the core columns
    new_base = tower.vmul(cert.code.g[k - 1, : cert.eval_set.n], cert.eval_set.codes)
    zero = tower.zero_code
    # self-pairing of the new row over the evaluation columns decides the shape
    s = int(tower.vsum(tower.vmul(new_base, tower.vfrob(new_base))))
    # the predecessor's rows padded by the new row, and by one column for a
    # unit entry when the self-pairing is nonzero
    g = np.full((k + 1, n + (s != zero)), zero, dtype=np.int32)
    g[:k, :n] = cert.code.g
    g[k, : cert.eval_set.n] = new_base
    if s == zero:
        label = f"n' = n = {n} (self-pairing zero)"
    else:
        minus_s = int(tower.vneg(s))
        if minus_s % (q + 1) != 0:  # not in GF(q)
            raise EmbeddingRejected(
                f"self-pairing {tower.format(s)} of the new row has no "
                f"norm-compensating column entry ({case})"
            )
        g[k, n] = col_entry = norm_preimage(tower, minus_s)
        label = (
            f"n' = n+1 = {n + 1}, column entry {tower.format(col_entry)} with "
            f"norm -{tower.format(s)}"
        )
    trace = cert.trace + tuple(notes) + (f"embed: {case}; accepted {label}",)
    try:
        member = _line_chain_member(cert.eval_set, g, trace)
    except RankDefect as exc:
        raise EmbeddingRejected(f"rank defect at k+1 = {k + 1}: {exc}") from None
    except GramNonzero as exc:
        raise EmbeddingRejected(f"Gram nonzero at k+1 = {k + 1} ({case})") from exc
    member.build_s = perf_counter() - start
    return member
