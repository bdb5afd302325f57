"""Default enumeration bounds; a caller overrides one by passing its own bound."""

GOOD_INVOLUTION_SIZE = 10
AUTOMORPHISM_SIZE = 12
MODULE_AUT_ORDER = 64
GAUGE_SEARCH = 10 ** 6  # candidate images tried by the one symmetry search
CHAIN_VERIFY_TUPLES = 10 ** 6
ENDO_ENUM = 10 ** 6
SUBGROUP_ENUM = 10 ** 4


def resolve(explicit, default):
    """Pick the effective bound: explicit argument, else default."""
    if explicit is not None:
        return explicit
    return default
