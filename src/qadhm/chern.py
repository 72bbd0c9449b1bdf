"""Euler characteristics of the twists of a monad sheaf on projective
three-space.

The monad O(-1)^c -> O^(2c+r) -> O(1)^c of a datum with c x c and c x r
blocks has cohomology E, so chi(E(k)) is additive over the three monad
terms.  No matrix is involved, so ``monad chern`` loads this module alone.
"""

__all__ = ["chi_line", "chi_twist"]


def chi_line(k):
    """chi(O(k)) = (k+1)(k+2)(k+3)/6, exact: one of three consecutive
    integers is divisible by 3 and one by 2."""
    return (k + 1) * (k + 2) * (k + 3) // 6


def chi_twist(r, c, k):
    """chi(E(k)) = (2c+r)*chi(O(k)) - c*chi(O(k-1)) - c*chi(O(k+1))."""
    return ((2 * c + r) * chi_line(k) - c * chi_line(k - 1)
            - c * chi_line(k + 1))
