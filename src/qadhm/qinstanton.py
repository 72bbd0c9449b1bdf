"""Module operators over the chart algebras: exactness, slices, curvature.

A matrix datum (B11, B12, B21, B22, i1, i2, j1, j2) induces four operators
between free modules over the chart-I (or chart-J) coordinate algebra,

    alpha_k : V (x) M  ->  (V + V + W) (x) M        (degree <= 1 entries)
    beta_k  : (V + V + W) (x) M  ->  V (x) M        (degree <= 1 entries)

the z (k = 1) and w (k = 2) coefficients of the pencils alpha and beta of
``exactcore.monad_pencils`` with x and y replaced by generators of the
chart, so each entry is a scalar plus at most one generator.  Every
operator is an ``exactcore.Matrix`` whose entries are ``NCPoly`` elements of
one chart, so sums, scalings and compositions are the ``Matrix`` ones.  The
three products beta_1 alpha_1, beta_2 alpha_2 and beta_2 alpha_1 + beta_1
alpha_2 reduce, after normal ordering, to the constant embeddings of the
three residual matrices, so they vanish identically exactly when the datum
solves the matrix equations.  On top of that this module provides:

* the matrices of the operators between capped-degree module slices
  (whether beta_P is onto is decided in ``slices`` from the Krylov closure,
  with no elimination over the rational function field),
* the curvature block matrix d(alpha-bar) ^ d(beta-bar), which no entry
  of a solution changes (d kills every constant), read off the wedge table
  alone, each block split into self-dual and anti-self-dual parts.  Under
  the derived wedge rules the [0, 0] block keeps a self-dual remainder with
  coefficient proportional to q^2 - 1, and the quoted display differs from
  the computed product by a global sign (its second factor is the negative
  of d(beta-bar)); the report records computed and quoted entries, plain and
  sign-adjusted matches, and the split verdicts for every block instead of
  adopting either claim.
"""

from .exactcore import (ADHMError, ComplexADHMDatum, Matrix,
                        is_complex_solution, monad_pencils)
from .qspacetime import _ZMONO, NCPoly, X_NAMES, add_to, monomials_of_degree
from .scalars import _QL_ONE, QLaurent

__all__ = [
    "build_q_ops", "scalar_operator", "identity_products", "ids_report",
    "truncated_matrix", "sd_asd_split", "form_str", "curvature_asd",
]


def scalar_operator(m, chart="I"):
    """Embed an exact matrix as an operator with constant entries."""
    return m.map(lambda x: NCPoly.scalar(chart, x))


# The signed generators of each chart that replace (x, y) in the z and w
# coefficients of the pencils; the product identities then give the residuals.
_SUBSTITUTIONS = {
    "I": {"z": ((-1, "x11"), (-1, "x12")), "w": ((-1, "x21"), (-1, "x22"))},
    "J": {"z": ((-1, "y22"), (1, "y12")), "w": ((1, "y21"), (-1, "y11"))},
}


def build_q_ops(d, chart="I"):
    """The four operators (alpha_1, alpha_2, beta_1, beta_2) of a datum: the
    z and w coefficients of its pencils alpha and beta with x and y replaced
    by the generators ``_SUBSTITUTIONS`` gives the chart."""
    if chart not in _SUBSTITUTIONS:
        raise ADHMError(f"unknown chart {chart!r}")
    ops = []
    for pencil in monad_pencils(d):
        for v in ("z", "w"):
            op = scalar_operator(pencil[v], chart)
            for u, (sign, name) in zip(("x", "y"), _SUBSTITUTIONS[chart][v]):
                g = NCPoly.gen(chart, name).scale(sign)
                for row, units in zip(op.a, pencil[u].a):
                    for k, x in enumerate(units):
                        if x:
                            row[k] = row[k] + g.scale(x)
            ops.append(op)
    return tuple(ops)


def identity_products(d, chart="I"):
    """The three operator products that encode the matrix equations."""
    a1, a2, b1, b2 = build_q_ops(d, chart)
    return {"b1a1": b1 * a1, "b2a2": b2 * a2, "mixed": b2 * a1 + b1 * a2}


def ids_report(d, chart="I"):
    """JSON-ready summary of the three identities (normal-form term counts)."""
    prods = identity_products(d, chart)
    return {
        "chart": chart,
        "solution": is_complex_solution(d),
        "identities": {
            key: {"is_zero": op.is_zero(),
                  "terms": sum(len(p.terms) for row in op.a for p in row)}
            for key, op in prods.items()
        },
        "all_zero": all(op.is_zero() for op in prods.values()),
    }


# ---------------------------------------------------------------------------
# degree-truncated slices
# ---------------------------------------------------------------------------

def _monomials_upto(dmax):
    if dmax < 0:
        raise ADHMError("degree cap must be nonnegative")
    return [m for deg in range(dmax + 1) for m in monomials_of_degree(deg)]


def _slice_rows(op, src_degree, tgt_degree):
    """Sparse rows {col: QLaurent} of an operator between capped-degree
    slices of free modules, with the two slice sizes.

    Source basis: (component, monomial of degree <= src_degree); target
    basis: (component, monomial of degree <= tgt_degree); image terms above
    the target cap are dropped.  Each entry is one product term: the column
    fixes (component, source monomial) and the row fixes (component, image
    monomial).
    """
    src = _monomials_upto(src_degree)
    tgt = _monomials_upto(tgt_degree)
    tpos = {m: k for k, m in enumerate(tgt)}
    rows = [{} for _ in range(op.rows * len(tgt))]
    chart = op[0, 0].chart
    for a in range(op.cols):
        for s, mono in enumerate(src):
            col = a * len(src) + s
            basis = NCPoly(chart, {mono: _QL_ONE})
            for v in range(op.rows):
                p = op[v, a]
                if p.is_zero():
                    continue
                for m2, c2 in (p * basis).terms.items():
                    k = tpos.get(m2)
                    if k is not None:
                        rows[v * len(tgt) + k][col] = c2
    return rows, len(src), len(tgt)


def truncated_matrix(op, src_degree, tgt_degree):
    """Matrix of an operator between capped-degree slices of free modules,
    with Laurent entries (see _slice_rows for the bases)."""
    rows, n_s, _ = _slice_rows(op, src_degree, tgt_degree)
    zero = QLaurent.zero()
    cols = op.cols * n_s
    return Matrix(len(rows), cols,
                  [[row.get(j, zero) for j in range(cols)] for row in rows])


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

# The SD/ASD basis of constant 2-forms {wedge word: QLaurent}, each word a
# strictly sorted pair of generator indices.
_SD_WORDS = ((0, 1), (2, 3))       # dx11^dx12, dx21^dx22
_ASD_WORDS = ((0, 2), (1, 3))      # dx11^dx21, dx12^dx22
_MIX_PLUS = (0, 3)                 # dx11^dx22
_MIX_MINUS = (1, 2)                # dx12^dx21

# The quoted curvature block matrix: {wedge word: integer} per block.
_QUOTED = (({(0, 3): -1, (1, 2): -1}, {(0, 2): 2}, {}),
           ({(1, 3): -2}, {(0, 3): 1, (1, 2): 1}, {}),
           ({}, {}, {}))


def _nonzero(acc):
    return {k: c for k, c in acc.items() if c}


def sd_asd_split(omega):
    """Split a constant 2-form {word: QLaurent} into its self-dual and
    anti-self-dual components.

    Basis: SD = <dx11^dx12, dx21^dx22, dx11^dx22 - dx12^dx21>,
           ASD = <dx11^dx21, dx12^dx22, dx11^dx22 + dx12^dx21>.
    Term by term: c.dx11^dx22 is c/2 on each mixed vector, c.dx12^dx21
    is -c/2 on the SD one and c/2 on the ASD one.  This basis is not
    stable under the automorphism sigma carrying p = q onto p = q^-1: it
    sends the mixed ASD vector to (q^2 - 2) dx11^dx22 - q^2 dx12^dx21,
    which is mixed, so a p = q^-1 verdict is not the sigma-image of the
    p = q one.
    """
    half = _QL_ONE / 2
    sd, asd = {}, {}
    for w, c in omega.items():
        if w in _SD_WORDS:
            add_to(sd, w, c)
        elif w in _ASD_WORDS:
            add_to(asd, w, c)
        else:
            h = c * half
            s = h if w == _MIX_PLUS else -h
            add_to(sd, _MIX_PLUS, s)
            add_to(sd, _MIX_MINUS, -s)
            add_to(asd, _MIX_PLUS, h)
            add_to(asd, _MIX_MINUS, h)
    sd, asd = _nonzero(sd), _nonzero(asd)
    total = dict(sd)
    for w, c in asd.items():
        add_to(total, w, c)
    if _nonzero(total) != omega:
        from .qcalculus import CalculusError
        raise CalculusError("SD/ASD split failed to reassemble")
    return sd, asd


def form_str(omega):
    """A constant 2-form as "(c)*dx11^dx22 + ...", by sorted word; "0"."""
    return " + ".join(f"({c})*" + "^".join("d" + X_NAMES[g] for g in w)
                      for w, c in sorted(omega.items())) or "0"


def curvature_asd(d, p_choice="q"):
    """Audit of the curvature block matrix d(alpha-bar) ^ d(beta-bar), as a
    JSON-ready report.

    Differentiation kills every constant, so only the unit blocks of the
    pencils survive and each block of the product is one constant 2-form
    times an identity matrix, whatever the datum: once the datum is known
    to be a solution, the 2-forms are read off the 1 x 1 zero datum, whose
    alpha-bar = (alpha_1 | alpha_2) and beta-bar = (-beta_2 ; beta_1) have
    signed generators as entries.  So each entry of their differentials is
    a constant 1-form {g: del_g}, and block (a, b) sums c1 c2 dx_g ^ dx_h in
    wedge normal form.  The blocks are the same for both p-choices (the
    wedge rules are shared and d x_g = dx_g under either): ``p_choice``
    picks only the x rules the wedge rules are rechecked against on their
    first read.  Each block is split into self-dual and anti-self-dual
    parts and compared with the quoted display ``_QUOTED`` directly and
    with the global sign flipped (the quoted second factor is the negative
    of d(beta-bar)).  The [0, 0] block keeps a self-dual remainder with
    coefficient proportional to q^2 - 1 under the derived wedge rules."""
    from .qcalculus import derive_table, partials
    d.require_solution()
    table = derive_table(p_choice)

    def dform(p):
        return {g: f.terms[_ZMONO]
                for g, f in enumerate(partials(p, table)) if f}

    a1, a2, b1, b2 = build_q_ops(ComplexADHMDatum(1, 1, *[[[0]]] * 8))
    d_alpha = [(dform(a1[a, 0]), dform(a2[a, 0])) for a in range(3)]
    d_beta = [(dform(-b2[0, b]), dform(b1[0, b])) for b in range(3)]
    entries = []
    for a in range(3):
        row = []
        for b in range(3):
            comp = {}
            for da, db in zip(d_alpha[a], d_beta[b]):
                for g, c1 in da.items():
                    for h, c2 in db.items():
                        for w, cw in table.wedge_norm((g, h)).items():
                            add_to(comp, w, c1 * c2 * cw)
            comp = _nonzero(comp)
            quo = {w: QLaurent({0: n}) for w, n in _QUOTED[a][b].items()}
            sd, asd = sd_asd_split(comp)
            row.append({
                "computed": form_str(comp),
                "quoted": form_str(quo),
                "match": comp == quo,
                "sign_adjusted_match": comp == {w: -c for w, c in quo.items()},
                "verdict": ("zero" if not comp else "ASD" if not sd
                            else "SD" if not asd else "mixed"),
                "sd_part": form_str(sd),
                "asd_part": form_str(asd),
            })
        entries.append(row)

    sign_defects = [[a, b] for a in range(3) for b in range(3)
                    if not entries[a][b]["sign_adjusted_match"]]
    return {
        "p_choice": p_choice,
        "block_sizes": [d.c, d.c, d.r],
        "entries": entries,
        "all_asd": all(e["verdict"] in ("zero", "ASD")
                       for row in entries for e in row),
        "matches_quoted": all(e["match"] for row in entries for e in row),
        "matches_quoted_up_to_sign": not sign_defects,
        "sign_adjusted_defects": sign_defects,
    }
