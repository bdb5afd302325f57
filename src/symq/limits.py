"""Default bounds; a caller overrides an enumeration bound by passing its own bound."""

GOOD_INVOLUTION_SIZE = 10  # largest rack whose good involutions are enumerated
AUTOMORPHISM_SIZE = 12  # largest rack whose automorphisms are enumerated
MODULE_AUT_ORDER = 64  # torsion order of A above which fiber symmetries are refused
GAUGE_SEARCH = 10 ** 6  # candidate images tried by the one symmetry search
CHAIN_VERIFY_TUPLES = 10 ** 6  # n-tuples that one d o d = 0 check may visit
ENDO_ENUM = 10 ** 6  # candidate fiber maps scanned, and 1-cocycles listed
TABLE_SIZE = 128  # largest rack or group table read from a file, before its O(n^3) checks
ARITH_TABLE_ORDER = 64  # largest group with arithmetic tables: memory for speed, never an answer
