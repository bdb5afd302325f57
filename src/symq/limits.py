"""Default caps, each a count of work; a caller overrides an enumeration's cap by passing its own bound."""

GAUGE_SEARCH = 10 ** 6  # candidate values tried by the symmetry and good-involution searches
CHAIN_VERIFY_TUPLES = 10 ** 6  # n-tuples that one d o d = 0 check may visit
ENDO_ENUM = 10 ** 6  # candidate fiber maps scanned, and 1-cocycles listed
TABLE_SIZE = 128  # largest rack or group table read from a file, before its O(n^3) checks
ARITH_TABLE_ORDER = 64  # largest group with arithmetic tables: memory for speed, never an answer
