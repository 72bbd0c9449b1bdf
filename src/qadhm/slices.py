"""Surjectivity of beta_P over the parameter line, decided from the Krylov
closure over Q(i) of ``krylov`` with no operator built; only ``inst slices``
loads it, and it loads neither ``adhm`` nor ``qinstanton``.

In chart I, beta_P = [-B~2 + g2, B~1 - g1, i~] with g1 = p1*x11 + p2*x21 and
g2 = p1*x12 + p2*x22, entries multiplying from the left, so
beta_P(pi*f) = beta_P(pi)*f.  So i~w (x) 1 = beta_P(w in the W slot), and if
u (x) 1 = beta_P(pi) then B~2u (x) 1 = beta_P(-u in slot 1 + pi*g2) and
B~1u (x) 1 = beta_P(u in slot 2 + pi*g1).  Conversely a covector xi killing
the closure S with xi B~k = mu_k xi, and a character chi with chi(gk) = mu_k
(on the plane x21 = x22 = 0 if p1 != 0, else x11 = x12 = 0), give
phi(v (x) f) = xi(v) chi(f), which kills the image.
"""

from itertools import product
from math import comb

from .exactcore import ADHMError, Matrix, _scalar, is_complex_solution
from .krylov import (_closure_basis, gcd_projective_roots, holds_everywhere,
                     stable_side_of)
from .scalars import _GR_ONE, _GR_ZERO, GaussRational, QLaurent

__all__ = ["pencil_grid", "slice_verdict", "slice_line"]


def pencil_grid(n=12):
    """n deterministic exact points of the parameter line: the two poles,
    then (1, t) over Gaussian integers t ordered by height."""
    if n < 1:
        raise ADHMError("grid size must be positive")
    pts = [(_GR_ONE, _GR_ZERO), (_GR_ZERO, _GR_ONE)]
    h = 1
    while len(pts) < n:
        for a in range(-h, h + 1):
            rem = h - abs(a)
            for b in sorted({-rem, rem}):
                pts.append((_GR_ONE, GaussRational(a, b)))
        h += 1
    return pts[:n]


def _charpoly(B):
    """det(t - B) as a polynomial in t, by Faddeev-LeVerrier: with M_0 = 0
    and a_c = 1, M_k = B M_(k-1) + a_(c-k+1) I and a_(c-k) = -tr(B M_k)/k."""
    c = B.rows
    ident = Matrix.identity(c, _GR_ONE, _GR_ZERO)
    m, a, coeffs = Matrix.zero(c, c, _GR_ZERO), _GR_ONE, {c: _GR_ONE}
    for k in range(1, c + 1):
        m = B * m + ident.scale(a)
        bm = B * m
        a = -sum((bm[t, t] for t in range(c)), _GR_ZERO) / GaussRational(k)
        if a:
            coeffs[c - k] = a
    return QLaurent(coeffs)


def _eigenvalues(B):
    """The Q(i) eigenvalues of B, each once, by real and then imaginary
    part."""
    roots, _ = gcd_projective_roots(_charpoly(B), 0)
    return sorted((pt[0] for pt, _ in roots), key=lambda x: (x.re, x.im))


def _eigen_covector(B1, B2, S):
    """(xi, mu1, mu2) with xi S = 0 and xi Bk = mu_k xi over Q(i), or None.
    mu_k is first taken as the trace of Bk on V/S over dim V/S, which is
    right when Bk has one eigenvalue there (so always when codim S = 1);
    failing that, every pair of Q(i) eigenvalues of B1 and B2 is tried."""
    c, mu = B1.rows, []
    for B in (B1, B2):
        on_s = S.solve(B * S) if S.cols else S   # S on_s = B S
        trace = sum((B[k, k] for k in range(c)), _GR_ZERO) \
            - sum((on_s[k, k] for k in range(S.cols)), _GR_ZERO)
        mu.append(trace / GaussRational(c - S.cols))

    def covector(mu1, mu2):
        ker = Matrix.vstack(
            [S.transpose()]
            + [(B - Matrix.identity(c, m, _GR_ZERO)).transpose()
               for B, m in ((B1, mu1), (B2, mu2))]).kernel()
        return (ker.col(0), mu1, mu2) if ker.cols else None

    found = covector(*mu)
    if found is None:
        for mu1, mu2 in product(_eigenvalues(B1), _eigenvalues(B2)):
            found = covector(mu1, mu2)
            if found:
                break
    return found


def slice_verdict(d, P, dmax):
    """Whether beta_P is onto at P, from the Krylov closure S of Im i~(P):
    ``certified`` when S = V, with the basis words that rebuild the
    preimages (the degree <= dmax slice is covered by sources of degree
    <= dmax + depth); ``refuted`` with xi and chi when S != V and
    ``_eigen_covector`` finds xi; ``undecided`` otherwise.  covered_dim is
    the part S (x) A of the slice, which the image always holds."""
    p1, p2 = _scalar(P[0]), _scalar(P[1])
    if not p1 and not p2:
        raise ADHMError("pencil parameters must not both vanish")
    if dmax < 0:
        raise ADHMError("degree cap must be nonnegative")
    B1, B2, i, _ = d.evaluate(p1, p2)
    S, words = _closure_basis([B1, B2], i)
    monomials = comb(dmax + 4, 4)     # of degree <= dmax in four generators
    report = {"P": [str(p1), str(p2)], "slice_dim": d.c * monomials,
              "covered_dim": S.cols * monomials}
    if S.cols == d.c:
        depth = max(len(w) for _, w in words)
        report.update(verdict="certified", surjective=True, depth=depth,
                      basis=[[t, w] for t, w in words],
                      method="Krylov closure is V: preimages from its words")
        return report
    found = _eigen_covector(B1, B2, S)
    if found is None:
        report.update(verdict="undecided", surjective=False,
                      method="Krylov closure is proper; no Q(i) witness")
        return report
    xi, mu1, mu2 = found
    lead = p1 if p1 else p2
    chi = [mu1 / lead, mu2 / lead, _GR_ZERO, _GR_ZERO]
    if not p1:
        chi = chi[2:] + chi[:2]
    report.update(
        verdict="refuted", surjective=False,
        witness={"xi": [str(x) for x in xi], "mu": [str(mu1), str(mu2)],
                 "chi": {g: str(x) for g, x in
                         zip(("x11", "x12", "x21", "x22"), chi)}},
        method="Krylov closure is proper: xi (x) chi kills the image")
    return report


def slice_line(d):
    """Where beta_P is onto, from the stable side of the taxonomy: onto
    wherever the triple is stable, and on a solution (where B~1 and B~2
    commute modulo the closure, so xi exists over an extension of Q(i))
    nowhere else; onto_everywhere is null when neither settles it."""
    _, gcd, roots, lefts = side = stable_side_of(d)
    return {
        "onto_everywhere": (True if holds_everywhere(side) else
                            False if is_complex_solution(d) else None),
        "stability_gcd": gcd,
        "failing_points": [{"z": str(z0), "w": str(w0), "multiplicity": m}
                           for (z0, w0), m in roots],
        "leftover_factors": lefts,
    }
