"""Fixed reference work that measures how fast the host runs right now.

``run.py`` starts this script as a fresh process before and after every timed
process.  It does the same pure-Python work every time: interpreter start,
``Fraction`` and big-integer arithmetic, dict and sort.  It imports nothing
from ``qadhm``, so no change to the library moves its time, while the host's
speed does.  It prints one fixed line, which ``run.py`` checks.
"""

from fractions import Fraction


def main():
    acc = Fraction(0)
    counts = {}
    x = 1
    for i in range(1, 1500):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        x = (x * 1103515245 + 12345) % (1 << 61)
        counts[x % 1009] = counts.get(x % 1009, 0) + i
        smallest = sorted(counts.values())[:8]
    print(acc, x, smallest)


if __name__ == "__main__":
    main()
