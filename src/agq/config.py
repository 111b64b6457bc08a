"""Enumeration budgets and size caps.

All caps are configuration, not constants: the environment variable
AGQ_CAP_OPS overrides the elementary-operation budget used by the
dual-distance column scan and the minors oracle.  It does not touch the
exhaustive word cap, whose unit (codewords) and default differ.
"""

import os

# largest field GF(p^{2m}) for which full log/Zech tables are built
DEFAULT_FIELD_CAP = 2 ** 22

# exhaustive codeword enumeration: q^{2k} must stay below this
DEFAULT_EXHAUSTIVE_CAP = 2 ** 26

# elementary field operations allowed per distance / minor-search call
DEFAULT_OPS_CAP = 10 ** 8


def ops_cap() -> int:
    raw = os.environ.get("AGQ_CAP_OPS")
    if raw:
        return int(raw)
    return DEFAULT_OPS_CAP


def exhaustive_cap() -> int:
    return DEFAULT_EXHAUSTIVE_CAP
