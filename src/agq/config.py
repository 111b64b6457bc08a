"""Enumeration budgets and size caps.

Each budget is read by the one search that spends it.  The environment
variable AGQ_CAP_OPS sets the elementary-operation budget of the dual-distance
column scan, which decides both MDS-ness and d(C^perp); it is the only way to
set it.  It does not touch the exhaustive word cap, whose unit (codewords)
differs and which has no override.
"""

import os

from .errors import BadRequest

# largest field GF(p^{2m}) a tower is built for, whose exp/log tables may be built in full
DEFAULT_FIELD_CAP = 2 ** 22

# codeword enumeration, in codes.exhaustive_distance alone: q^{2k} must not exceed this
EXHAUSTIVE_CAP = 2 ** 21

# elementary field operations allowed per column-scan call
DEFAULT_OPS_CAP = 10 ** 8


def ops_cap() -> int:
    """AGQ_CAP_OPS when set and nonempty, else DEFAULT_OPS_CAP.  Raises
    BadRequest when the variable is not a positive integer."""
    raw = os.environ.get("AGQ_CAP_OPS")
    if not raw:
        return DEFAULT_OPS_CAP
    if not raw.strip().isdecimal() or int(raw) <= 0:
        raise BadRequest(f"AGQ_CAP_OPS must be a positive integer, got {raw!r}")
    return int(raw)
