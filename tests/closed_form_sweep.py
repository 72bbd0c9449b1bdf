"""The full closed-form sweep of the q-harmonic basis, too slow for tier-1.

For every index with 2l <= 16, the out-of-range ring |m| or |n| = l + 1
included (2,465 indices), it checks ``qspacetime.harmonic`` against the
pencil expansion through the rewrite engine, ``helpers.harmonic_by_pencils``
(chart I), and the test-local chart-J closed form against
``statements.harmonic_Y``.  ``TestClosedForms`` in ``test_qspacetime.py``
runs the same comparisons for 2l <= 10 and on seeded samples at 2l = 16
and 32.  Run from the repository root:

    PYTHONPATH=src:tests python tests/closed_form_sweep.py [MAX_TWO_L]

It prints the number of indices checked and exits 0, or exits 1 naming the
first index where a closed form differs.
"""

import sys

from qadhm.qspacetime import harmonic

from helpers import harmonic_by_pencils
from statements import harmonic_Y
from test_qspacetime import harmonic_Y_closed, indices_upto


def sweep(max_two_l):
    """The number of indices checked; raises at the first that differs."""
    count = 0
    for idx in indices_upto(max_two_l):
        if harmonic(idx) != harmonic_by_pencils(idx):
            raise AssertionError(f"chart I closed form differs at {idx}")
        if harmonic_Y_closed(idx) != harmonic_Y(idx):
            raise AssertionError(f"chart J closed form differs at {idx}")
        count += 1
    return count


def main(argv):
    max_two_l = int(argv[0]) if argv else 16
    try:
        count = sweep(max_two_l)
    except AssertionError as exc:
        print(exc)
        return 1
    print(f"{count} indices with 2l <= {max_two_l}: both closed forms agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
