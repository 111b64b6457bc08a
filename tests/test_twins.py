"""Structure-free twins: every certified code of the exactness sweeps against
an equivalent code that has no record.

R * G * P * D, with R an invertible k x k matrix, P a column permutation and
D a diagonal of norm-1 scalars (u^(q+1) = 1), generates a code equivalent to
C: Hermitian self-orthogonal with C, with the same d(C), d(C^perp), MDS flag
and quantum distance.  For k >= 3 it has, in general, no record, so its
certificate comes from the generic path (the systematic screen, Cauchy and the column scan), a
second opinion on every record's reading at full size (metamorphic testing,
with code equivalence as the relation).
"""

import json
from collections import Counter
from unittest import mock

import numpy as np

import agq.cli
from agq.codes import LinearCode, certify, rank

from .exactness import SWEEPS as EXACTNESS_SWEEPS


# the sweeps of python -m tests.exactness on their first towers (c1 up to GF(169)) and what
# they print: rows certified, d(C^perp) lower bounds, classical d null, MDS methods
COUNTS = {
    "c1": (5, 175, 8, 22,
           {"column-scan": 29, "column-scan-lower-bound": 8, "extended-grs": 41, "systematic": 1, "vandermonde": 96}),
    "c4": (5, 158, 5, 5, {"column-scan-lower-bound": 5, "extended-grs": 23, "vandermonde": 130}),
    "c5 c6 c8 c9 c10": (6, 52, 15, 23, {"column-scan": 29, "systematic": 19, "vandermonde": 4}),
    "c7iii t=1..3": (6, 18, 2, 7, {"column-scan": 16, "systematic": 2}),
}
SWEEPS = {
    name: ([command[: command.index("--tower") + 2 * COUNTS[name][0]] for command in commands], *COUNTS[name][1:])
    for name, commands in EXACTNESS_SWEEPS.items()
}


def sweep(commands, out):
    """The certified rows that the scans print, and every chain member they certified."""
    rows, members = [], []
    entry = agq.cli.catalog_entry

    def spy(cert, request, elapsed):
        members.append(cert.certificate)
        return entry(cert, request, elapsed)

    with mock.patch.object(agq.cli, "catalog_entry", spy):
        for command in commands:
            assert agq.cli.main(["scan", *command, "--out", str(out)]) == 0
            rows += [row for row in map(json.loads, out.read_text().splitlines()) if row.get("verdict") == "CERTIFIED"]
    return rows, members


def twin(code, rng):
    """R * G * P * D for a random invertible R, permutation P and diagonal D of
    norm-1 scalars; returns the twin's matrix and P as the original column of each."""
    tw, k = code.tower, code.k
    while rank(tw, r := rng.integers(tw.q2, size=(k, k)).astype(np.int32)) < k:
        pass
    rg = tw.vsum(tw.vmul(r[:, :, None], code.g[None, :, :]), axis=1)
    perm = rng.permutation(code.n)
    norm_one = (rng.integers(tw.q + 1, size=code.n) * (tw.q - 1)).astype(np.int32)  # (t^((q-1)j))^(q+1) = 1
    return tw.vmul(rg[:, perm], norm_one), perm


def agree(a, b):
    """Two readings of one distance, exact or a lower bound: equal when both are
    exact, and a bound never above the other side's exact value."""
    if a.exact and b.exact:
        assert a.value == b.value
    elif a.exact or b.exact:
        assert (b if a.exact else a).value <= (a if a.exact else b).value


def test_twins_agree_with_every_record(tmp_path):
    """Every distinct certified code of the four sweeps against its seeded twin:
    a zero Gram, the same MDS flag where both decide it, the same d(C^perp),
    quantum d and d(C) where both are exact and never a bound above an exact
    value, and the twin's dependent set, mapped back through P, of rank
    |W| - 1 in G.  The sweeps' exactness counts hold too."""
    rng = np.random.default_rng(5)
    seen = set()
    for name, (commands, certified, bounds, null, methods) in SWEEPS.items():
        rows, members = sweep(commands, tmp_path / "scan.jsonl")
        assert len(rows) == certified, name
        assert sum(not row["dual_distance"]["exact"] for row in rows) == bounds, name
        assert sum(row["classical"]["d"] is None for row in rows) == null, name
        assert Counter(row["classical"]["mds_method"] for row in rows) == methods, name
        for cert in members:
            code = cert.code
            key = (code.tower.q2, code.g.shape, code.g.tobytes())
            if key in seen:
                continue
            seen.add(key)
            g, perm = twin(code, rng)
            other = certify(LinearCode(code.tower, g))  # a nonzero Gram raises GramNonzero
            assert other.gram.all_zero
            if cert.mds is not None and other.mds is not None:
                assert cert.mds == other.mds, code
            agree(cert.dual_distance, other.dual_distance)
            agree(cert.quantum_distance, other.quantum_distance)
            if cert.distance is not None and other.distance is not None:
                assert cert.distance.value == other.distance.value, code
            witness = other.dual_distance.witness
            if other.dual_distance.exact and witness is not None:
                assert rank(code.tower, code.g[:, perm[list(witness)]]) == len(witness) - 1, code
    assert len(seen) == 368  # distinct codes
