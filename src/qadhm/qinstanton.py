"""Module operators over the chart algebras: exactness, slices, curvature.

A matrix datum (B11, B12, B21, B22, i1, i2, j1, j2) induces four operators
between free modules over the chart-I (or chart-J) coordinate algebra,

    alpha_k : V (x) M  ->  (V + V + W) (x) M        (degree <= 1 entries)
    beta_k  : (V + V + W) (x) M  ->  V (x) M        (degree <= 1 entries)

whose entries are scalars plus at most one generator.  Every operator is an
``exactcore.Matrix`` whose entries are ``NCPoly`` elements of one chart, so
sums, scalings and compositions are the ``Matrix`` ones.  The three products
beta_1 alpha_1, beta_2 alpha_2 and beta_2 alpha_1 + beta_1 alpha_2 reduce,
after normal ordering, to the constant embeddings of the three quadratic
residual matrices, so they vanish identically exactly when the datum solves
the matrix equations.  On top of that this module provides:

* the matrices of the operators between capped-degree module slices
  (whether beta_P is onto is decided in ``slices`` from the Krylov closure,
  with no elimination over the rational function field),
* the curvature block matrix d(alpha) ^ d(beta-bar) in wedge normal form,
  audited entry by entry against the self-dual/anti-self-dual split.  Under
  the derived wedge rules the (1,1) block keeps a self-dual remainder with
  coefficient proportional to q^2 - 1, and the quoted display differs from
  the computed product by a global sign (its second factor is the negative
  of d(beta-bar)); the report records computed and quoted entries, plain
  and sign-adjusted matches, and the split verdicts for every block instead
  of adopting either claim.
"""

from .datum import is_complex_solution
from .exactcore import Matrix, QLaurent
from .qspacetime import NCPoly, X_NAMES, Y_NAMES, monomials_of_degree

__all__ = [
    "QInstantonError", "build_q_ops", "scalar_operator",
    "identity_products", "ids_report", "truncated_matrix", "curvature_asd",
    "curvature_report_json",
]

_ZMONO = (0, 0, 0, 0)


class QInstantonError(ValueError):
    """Invalid datum, parameters or degree caps for the operator checks."""


def scalar_operator(m, chart="I"):
    """Embed an exact matrix as an operator with constant entries."""
    return m.map(lambda x: NCPoly.scalar(chart, x))


def _shifted_block(chart, b, gen_name, gen_sign):
    """Block B (+|-) generator: entries B[u][v] + gen_sign * delta_uv * gen."""
    g = NCPoly.gen(chart, gen_name).scale(gen_sign)
    return scalar_operator(b, chart) + Matrix.identity(b.rows, g,
                                                       NCPoly.zero(chart))


def build_q_ops(d, chart="I"):
    """The four operators (alpha_1, alpha_2, beta_1, beta_2) of a datum.

    Chart I pairs the generators (x11, x12) with alpha_1/beta_1 and
    (x21, x22) with alpha_2/beta_2; chart J swaps in the y-generators with
    the sign pattern demanded by its exchange rules, so that the product
    identities again collapse onto the residual matrices.  The alphas stack
    their blocks as V|V|W rows over V, the betas join them as V|V|W columns
    into V.
    """
    if chart == "I":
        g11, g12, g21, g22 = X_NAMES
        a1 = [(d.B11, g11, -1), (d.B12, g12, -1)]
        a2 = [(d.B21, g21, -1), (d.B22, g22, -1)]
        b1 = [(-d.B12, g12, 1), (d.B11, g11, -1)]
        b2 = [(-d.B22, g22, 1), (d.B21, g21, -1)]
    elif chart == "J":
        y11, y12, y21, y22 = Y_NAMES
        a1 = [(d.B11, y22, -1), (d.B12, y12, 1)]
        a2 = [(d.B21, y21, 1), (d.B22, y11, -1)]
        b1 = [(-d.B12, y12, -1), (d.B11, y22, -1)]
        b2 = [(-d.B22, y11, 1), (d.B21, y21, 1)]
    else:
        raise QInstantonError(f"unknown chart {chart!r}")

    def op(stack, shifted, const):
        return stack([_shifted_block(chart, *blk) for blk in shifted]
                     + [scalar_operator(const, chart)])

    return (op(Matrix.vstack, a1, d.j1), op(Matrix.vstack, a2, d.j2),
            op(Matrix.hstack, b1, d.i1), op(Matrix.hstack, b2, d.i2))


def identity_products(d, chart="I"):
    """The three operator products that encode the matrix equations."""
    a1, a2, b1, b2 = build_q_ops(d, chart)
    return {
        "b1a1": b1 * a1,
        "b2a2": b2 * a2,
        "mixed": b2 * a1 + b1 * a2,
    }


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
        raise QInstantonError("degree cap must be nonnegative")
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
    one = QLaurent.one()
    chart = op[0, 0].chart
    for a in range(op.cols):
        for s, mono in enumerate(src):
            col = a * len(src) + s
            basis = NCPoly(chart, {mono: one})
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


def _bars(a1, a2, b1, b2):
    """(alpha-bar, beta-bar) from one build of the four operators: the
    joined (alpha_1 | alpha_2) : V|V -> V|V|W and the stacked
    (-beta_2 ; beta_1) : V|V|W -> V|V."""
    return Matrix.hstack([a1, a2]), Matrix.vstack([-b2, b1])


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def _form_from_words(table, coeffs):
    """2-form with constant coefficients: {word: QLaurent}."""
    from .qforms import NCForm
    return NCForm(table, 2, {(w, _ZMONO): c for w, c in coeffs.items()})


def _quoted_display(table):
    """The quoted curvature block matrix, as constant-coefficient 2-forms."""
    e03, e12 = (0, 3), (1, 2)
    e02, e13 = (0, 2), (1, 3)
    one = QLaurent.one()
    two = QLaurent.from_scalar(2)
    zero = _form_from_words(table, {})
    return [
        [_form_from_words(table, {e03: -one, e12: -one}),
         _form_from_words(table, {e02: two}), zero],
        [_form_from_words(table, {e13: -two}),
         _form_from_words(table, {e03: one, e12: one}), zero],
        [zero, zero, zero],
    ]


def curvature_asd(d, p_choice="q"):
    """Audit of the curvature block matrix d(alpha) ^ d(beta-bar).

    Differentiation kills every constant block, so each block of the
    product is a single 2-form times an identity matrix; the block
    structure is verified entry by entry before the 3x3 block scalars are
    extracted.  Each block scalar is then split into self-dual and
    anti-self-dual parts and compared against the quoted display both
    directly and with the global sign flipped (the quoted second factor is
    the negative of d(beta-bar)).  The (1,1) block keeps a self-dual
    remainder with coefficient proportional to q^2 - 1 under the derived
    wedge rules; nothing here depends on the datum beyond it being a
    solution."""
    from .qcalculus import derive_table
    from .qforms import NCForm, asd_membership, d as exterior_d
    if not is_complex_solution(d):
        raise QInstantonError("curvature audit requires a solution datum")
    table = derive_table(p_choice)

    def dform(p):
        return exterior_d(p, table)

    abar, bbar = _bars(*build_q_ops(d, "I"))
    prod = abar.map(dform) * bbar.map(dform)

    bounds = [0, d.c, 2 * d.c, prod.rows]
    zero = NCForm(table, 2, {})
    blocks = []
    for a in range(3):
        brow = []
        for b in range(3):
            scalar = prod[bounds[a], bounds[b]] \
                if bounds[a] < bounds[a + 1] and bounds[b] < bounds[b + 1] \
                else zero
            for i in range(bounds[a], bounds[a + 1]):
                for j in range(bounds[b], bounds[b + 1]):
                    want = scalar if i - bounds[a] == j - bounds[b] else zero
                    if prod[i, j] != want:
                        raise QInstantonError(
                            "curvature product is not block-scalar")
            brow.append(scalar)
        blocks.append(brow)

    quoted = _quoted_display(table)
    entries = []
    all_asd = True
    for a in range(3):
        row = []
        for b in range(3):
            comp, quo = blocks[a][b], quoted[a][b]
            split = asd_membership(comp)
            if split["verdict"] not in ("zero", "ASD"):
                all_asd = False
            row.append({
                "computed": comp,
                "quoted": quo,
                "match": comp == quo,
                "sign_adjusted_match": comp == quo.scale(-1),
                "verdict": split["verdict"],
                "sd_part": split["sd_part"],
                "asd_part": split["asd_part"],
            })
        entries.append(row)

    sign_defects = [[a, b] for a in range(3) for b in range(3)
                    if not entries[a][b]["sign_adjusted_match"]]
    return {
        "p_choice": p_choice,
        "block_sizes": [d.c, d.c, d.r],
        "entries": entries,
        "all_asd": all_asd,
        "matches_quoted": all(e["match"] for row in entries for e in row),
        "matches_quoted_up_to_sign": not sign_defects,
        "sign_adjusted_defects": sign_defects,
    }


def curvature_report_json(report):
    """Stringify the exact forms of a curvature report for serialization."""
    from .qforms import NCForm
    out = {k: v for k, v in report.items() if k != "entries"}
    out["entries"] = [[
        {k: (str(v) if isinstance(v, NCForm) else v) for k, v in e.items()}
        for e in row] for row in report["entries"]]
    return out
