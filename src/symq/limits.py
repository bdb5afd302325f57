"""Default enumeration bounds, overridable via the SYMQ_MAX_ENUM env variable."""

import os

GOOD_INVOLUTION_SIZE = 10
AUTOMORPHISM_SIZE = 12
MODULE_AUT_ORDER = 64
GAUGE_SEARCH = 10 ** 6  # candidate images tried by the one symmetry search
CHAIN_VERIFY_TUPLES = 10 ** 6
ENDO_ENUM = 10 ** 6
SUBGROUP_ENUM = 10 ** 4


def resolve(explicit, default):
    """Pick the effective bound: explicit argument, else env override, else default."""
    if explicit is not None:
        return explicit
    env = os.environ.get("SYMQ_MAX_ENUM")
    if env is None:
        return default
    if not env.strip().isdecimal():
        raise ValueError(f"SYMQ_MAX_ENUM must be a non-negative integer, got {env!r}")
    return int(env)
