"""The benchmark's workloads and how a seed turns them into requests.

A workload is a list of slots.  Every variant of a slot makes agq do the
same dominant work (same field, same code length, same enumeration size),
so the seed changes the requests, their verdicts and their order without
changing how much work one pass is.  The reference outputs in
``reference.json`` cover every variant of every slot.

``reproduce`` runs the 33 pinned rows of ``agq reproduce mds1|mixed``; the
seed only permutes them.  Its rows come from agq itself, so this module
holds only the two catalog workloads.
"""

from __future__ import annotations

import random

WORKLOADS = ("reproduce", "catalog-curves", "construct-large")


def req(construction, p, m, n=None, t=None, k=None, embed="none") -> dict:
    return {"construction": construction, "p": p, "m": m, "n": n, "t": t, "k": k, "embed": embed}


def request_id(r: dict) -> str:
    def v(x):
        return "-" if x is None else str(x)

    return (
        f"{r['construction']} p={r['p']} m={r['m']} n={v(r['n'])} t={v(r['t'])} "
        f"k={v(r['k'])} embed={r['embed']}"
    )


# Curve families c5, c6, c8, c9, c10 over q^2 <= 256.  Each variant of a slot
# yields a code of the same length and dimension, with q^(2 dim) <= 2^21 so
# that catalog_entry enumerates every codeword for the primal distance.
CATALOG_CURVES = (
    # [49,3] over GF(49): the Riemann-Roch bound k changes, the code does not
    tuple(req("c9", 7, 1, t=t, k=k) for t, ks in ((5, range(8, 11)), (7, range(8, 15))) for k in ks),
    # [91,3] over GF(49)
    tuple(req("c9", 7, 1, t=6, k=k) for k in range(8, 13)),
    # [175,3] over GF(49), half-exponent Hermitian or Artin-Schreier
    (req("c8", 7, 1, k=8), req("c9", 7, 1, t=4, k=8)),
    # [671,2] over GF(121)
    tuple(req("c8", 11, 1, k=k) for k in range(7, 12)),
    # [44,3] hyperelliptic over GF(64)
    tuple(req("c6", 2, 3, n=22, k=k) for k in (5, 6)),
    # [64,3] Artin-Schreier over GF(64)
    (req("c10", 2, 3, t=5, k=9),),
    # [24,4] elliptic over GF(16)
    (req("c5", 2, 2, k=5),),
    # dimension-1 codes over GF(256): fibers and twists, no enumeration
    tuple(req("c10", 2, 4, t=t, k=2) for t in range(3, 17, 2)),
    # verdicts: the curve's hypotheses fail, or the Gram check rejects the code
    tuple(req("c9", 7, 1, t=8, k=k) for k in range(2, 9))
    + tuple(req("c10", 2, 3, t=t, k=4) for t in (2, 4, 6, 8))
    + tuple(req("c5", 2, 1, k=k) for k in range(4, 9)),
)

# c1 (roots of x^n - x) in fields from q^2 = 961 to 2^16, n from 161 to 1024.
# Within a slot the field and n are fixed, so the O(n^2) twist vector and the
# q^2 tower tables cost the same whichever variant the seed picks.  Some
# variants ask for a dimension that the Gram check rejects.
CONSTRUCT_LARGE = (
    (req("c1", 2, 5, n=1024), req("c1", 2, 5, n=1024, k=30), req("c1", 2, 5, n=1024, k=32),
     req("c1", 2, 5, n=1024, k=33)),
    (req("c1", 2, 5, t=11, embed="deep"), req("c1", 2, 5, n=342, embed="once"), req("c1", 2, 5, n=342, k=30)),
    (req("c1", 2, 6, n=456), req("c1", 2, 6, n=456, k=3), req("c1", 2, 6, n=456, k=12)),
    (req("c1", 2, 8, n=258), req("c1", 2, 8, n=258, k=2), req("c1", 2, 8, n=258, embed="once")),
    (req("c1", 3, 4, n=411), req("c1", 3, 4, n=411, k=4), req("c1", 3, 4, n=411, k=12)),
    (req("c1", 3, 4, n=161), req("c1", 3, 4, n=161, k=5), req("c1", 3, 4, n=161, k=1)),
    (req("c1", 7, 2, n=401), req("c1", 7, 2, n=401, k=4), req("c1", 7, 2, n=401, k=20)),
    (req("c1", 13, 2, n=241), req("c1", 13, 2, n=241, k=1), req("c1", 13, 2, n=241, k=5)),
    (req("c1", 31, 1, n=241), req("c1", 31, 1, n=241, k=4), req("c1", 31, 1, n=241, k=12)),
    (req("c1", 31, 1, n=481), req("c1", 31, 1, n=481, k=10), req("c1", 31, 1, n=481, k=20)),
    (req("c1", 251, 1, n=251), req("c1", 251, 1, n=251, k=2), req("c1", 251, 1, n=251, embed="once")),
)

SLOTS = {"catalog-curves": CATALOG_CURVES, "construct-large": CONSTRUCT_LARGE}


def pool(workload: str) -> list[dict]:
    """Every request the workload can issue, whatever the seed."""
    return [variant for slot in SLOTS[workload] for variant in slot]


def catalog_requests(workload: str, seed: int) -> list[dict]:
    """One variant per slot, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(slot) for slot in SLOTS[workload]]
    rng.shuffle(picked)
    return picked


def reproduce_order(row_ids: list[str], seed: int) -> list[str]:
    rng = random.Random(f"reproduce:{seed}")
    order = list(row_ids)
    rng.shuffle(order)
    return order
