"""Stabilizer parameters [[n, n-2k, d]]_q from Hermitian self-orthogonal codes.

The quantum distance is d = min wt(C^perp_H \\ C) (Ketkar, Klappenecker,
Kumar and Sarvepalli, IEEE TIT 2006), read from the code's certificate.  The
column scan gives d(C^perp_H) = d(C^perp) (entrywise Frobenius preserves
Hamming weight), a lower bound on d; it is reported as exact only when the
scan's witness gives a word of that weight outside C, when C is MDS with
n > 2k, or when n = 2k (then C^perp_H = C, and an [[n, 0]] code's distance is
d(C^perp_H)).  A designed bound from the construction is never reported as d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import Certificate


@dataclass(frozen=True)
class QuantumParams:
    q: int
    n: int
    k: int  # logical dimension n - 2k_classical
    d: int  # exact value, or certified lower bound when d_exact is False
    d_exact: bool
    d_method: str
    mds: bool | None  # None = unknown (distance not exact)
    defect: int | None  # quantum Singleton defect, when d is exact

    def params_string(self) -> str:
        mark = "" if self.d_exact else ">="
        return f"[[{self.n},{self.k},{mark}{self.d}]]_{self.q}"


def stabilizer_params(cert: Certificate) -> QuantumParams:
    """[[n, n-2k, min wt(C^perp_H \\ C)]]_q for a Gram-certified [n, k] code,
    read from its certificate alone: any code certify() accepted, built by a
    construction or read from a file."""
    code = cert.code
    qd = cert.quantum_distance
    n, k_q, q = code.n, code.n - 2 * code.k, code.tower.q
    if qd.exact:
        defect = n - k_q - 2 * qd.value + 2
        return QuantumParams(q, n, k_q, qd.value, True, qd.method, defect == 0, defect)
    return QuantumParams(q, n, k_q, qd.value, False, qd.method, None, None)
