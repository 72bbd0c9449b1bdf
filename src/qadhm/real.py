"""Real ADHM data and their embedding into complex data; only ``adhm embed``
loads this module.

A real datum (B1, B2, i, j) solves, at level xi,

  [B1,B2] + i*j = 0,
  [B1,B1^+] + [B2,B2^+] + i*i^+ - j^+*j - xi = 0     (^+ = conjugate transpose)

and ``embed_real`` sends a xi = 0 solution to the complex datum
(B1, B2, -B2^+, B1^+, i, -j^+, j, i^+).  The entrywise involution
(B11,B12,B21,B22,i1,i2,j1,j2) -> (B22^+, -B21^+, -B12^+, B11^+, j2^+, -j1^+,
-i2^+, i1^+) squares to the identity on solutions, and its fixed points are
the images of real data.
"""

from .exactcore import (ADHMError, ComplexADHMDatum, Matrix, _scalar,
                        is_complex_solution)
from .scalars import GaussRational

__all__ = ["real_residuals", "embed_real"]


def real_residuals(d, xi):
    """The two residuals of a real datum at the given level xi."""
    xi = _scalar(xi)
    r1 = d.B1.commutator(d.B2) + d.i * d.j
    r2 = (d.B1.commutator(d.B1.dagger()) + d.B2.commutator(d.B2.dagger())
          + d.i * d.i.dagger() - d.j.dagger() * d.j
          - Matrix.identity(d.c, GaussRational(1), GaussRational(0))
          .scale(xi))
    return r1, r2


def embed_real(d):
    """Send a xi=0 real solution to the complex datum
    (B1, B2, -B2^+, B1^+, i, -j^+, j, i^+); rejects non-solutions.

    The output solves the complex equations (checked) and is a fixed point of
    the dagger involution; it is stable everywhere when the input is stable.
    """
    r1, r2 = real_residuals(d, 0)
    if not r1.is_zero():
        raise ADHMError("embed_real: first real residual is nonzero")
    if not r2.is_zero():
        raise ADHMError("embed_real: second real residual is nonzero at xi=0")
    out = ComplexADHMDatum(
        d.c, d.r,
        d.B1, d.B2, -d.B2.dagger(), d.B1.dagger(),
        d.i, -d.j.dagger(), d.j, d.i.dagger())
    if not is_complex_solution(out):
        raise ADHMError("embed_real: output fails the complex equations")
    return out
