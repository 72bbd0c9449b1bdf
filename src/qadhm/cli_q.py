"""``qadhm q`` commands: normal forms, the calculus and its Laplacian, the
harmonic basis and the Penrose transform."""

from .cli import (FILE, MAX_COCYCLE_ITEMS, MAX_DET_POWER, MAX_TWO_L,
                  P_CHOICE, CLIError, _load_json, arg)


def _cmd_q_normalize(args):
    from .expr import parse_expr
    p = parse_expr(args.expr)
    return {
        "input": args.expr,
        "normal_form": str(p),
        "terms": p.to_json(),
        "degree": p.degree(),
    }, True


def _cmd_q_partial(args):
    from .expr import parse_expr
    from .qcalculus import derive_table, partials
    from .qspacetime import X_NAMES
    p = parse_expr(args.expr)
    table = derive_table(args.p_choice)
    parts = partials(p, table)
    return {
        "input": args.expr,
        "p_choice": args.p_choice,
        "partials": {name: str(f) for name, f in zip(X_NAMES, parts)},
    }, True


def _cmd_q_laplace(args):
    from .expr import parse_expr
    from .qcalculus import derive_table, laplacian
    p = parse_expr(args.expr)
    table = derive_table(args.p_choice)
    box = laplacian(p, table)
    return {
        "input": args.expr,
        "p_choice": args.p_choice,
        "laplacian": str(box),
        "harmonic": box.is_zero(),
    }, True


def _check_harmonic_caps(args):
    if args.l > MAX_TWO_L or args.k > MAX_DET_POWER:
        raise CLIError(f"l must be at most {MAX_TWO_L} and k at most "
                       f"{MAX_DET_POWER}")


def _cmd_q_harmonic(args):
    if args.k < 0:
        raise CLIError("-k (the det power) must be nonnegative")
    if args.l < 0:
        raise CLIError("-l (twice l) must be nonnegative")
    _check_harmonic_caps(args)
    if (args.m - args.l) % 2 or (args.n - args.l) % 2:
        raise CLIError("-m and -n (twice m and n) must have the parity of -l")
    from .qcalculus import derive_table, laplacian
    from .qspacetime import HarmonicIndex, basis_element
    idx = HarmonicIndex(args.l, args.m, args.n, args.k)
    if not idx.in_range():
        raise CLIError("m and n must lie in [-l, l]")
    table = derive_table(args.p_choice)
    elt = basis_element(idx)
    core = basis_element(HarmonicIndex(args.l, args.m, args.n, 0))
    harmonic_ok = laplacian(core, table).is_zero()
    report = {
        "index": str(idx),
        "p_choice": args.p_choice,
        "element": str(elt),
        "terms": elt.to_json(),
        "harmonic_part_is_harmonic": harmonic_ok,
    }
    return report, harmonic_ok


def _cmd_q_eigen(args):
    from .qcalculus import derive_table, eigenvalue_tilde, tilde_laplacian
    from .qspacetime import HarmonicIndex, basis_element
    if args.k < 0 or args.l < 0:
        raise CLIError("k and l must be nonnegative")
    _check_harmonic_caps(args)
    lam = eigenvalue_tilde(args.k, args.l, args.p_choice)
    table = derive_table(args.p_choice)
    witness = basis_element(HarmonicIndex(args.l, args.l, args.l, args.k))
    verified = tilde_laplacian(witness, table) == witness.scale(lam)
    report = {
        "k": args.k,
        "two_l": args.l,
        "p_choice": args.p_choice,
        "eigenvalue": lam.to_json(),
        "eigenvalue_str": str(lam),
        "verified_on_witness": verified,
    }
    return report, verified


def _cmd_q_table(args):
    from .qcalculus import derive_table
    return derive_table(args.p_choice).to_json(), True


def _cmd_q_penrose(args):
    from .scalars import parse_gauss
    from .qcalculus import cech_index, derive_table, laplacian, penrose_scalar
    obj = _load_json(args.file)
    items = obj.get("cocycle") if isinstance(obj, dict) else obj
    if not isinstance(items, list) or not 0 < len(items) <= MAX_COCYCLE_ITEMS:
        raise CLIError("penrose input must be a list of 1 to "
                       f"{MAX_COCYCLE_ITEMS} items under \"cocycle\": "
                       "[{\"exponents\": [ex,ey,ez,ew], \"coeff\": \"a/b\"}]")
    pairs = []
    for item in items:
        try:
            exps = tuple(item["exponents"])
            if any(type(e) is not int for e in exps):
                raise TypeError("exponents must be integers")
            coeff = parse_gauss(str(item.get("coeff", "1")))
        except (KeyError, TypeError, ValueError) as exc:
            raise CLIError(f"bad cocycle item {item!r}: {exc}") from exc
        if len(exps) != 4:
            raise CLIError("cocycle exponents must have four entries")
        idx = cech_index(exps)
        if idx.two_l > MAX_TWO_L:
            raise CLIError(f"cocycle {list(exps)} has 2l = {idx.two_l}; "
                           f"l must be at most {MAX_TWO_L}")
        pairs.append((exps, coeff))
    image = penrose_scalar(pairs)
    table = derive_table(args.p_choice)
    harmonic_ok = laplacian(image, table).is_zero()
    report = {
        "p_choice": args.p_choice,
        "image": str(image),
        "terms": image.to_json(),
        "harmonic": harmonic_ok,
    }
    return report, harmonic_ok


_EXPR = [P_CHOICE, arg("expr")]
# ``normalize`` takes --p-choice unread (its normal form does not depend on
# it), because the benchmark's normalize ops pass it.
COMMANDS = {
    "normalize": ("normal form of an expression", _cmd_q_normalize, _EXPR),
    "partial": ("the four partial derivatives of an expression",
                _cmd_q_partial, _EXPR),
    "laplace": ("Laplacian of an expression", _cmd_q_laplace, _EXPR),
    "harmonic": ("basis element det^k X[l, m, n] (doubled indices)",
                 _cmd_q_harmonic,
                 [P_CHOICE,
                  arg("-l", type=int, required=True, help="twice l"),
                  arg("-m", type=int, required=True, help="twice m"),
                  arg("-n", type=int, required=True, help="twice n"),
                  arg("-k", type=int, default=0, help="det power")]),
    "eigen": ("eigenvalue of det*box on det^k X^l", _cmd_q_eigen,
              [P_CHOICE, arg("-k", type=int, required=True, help="det power"),
               arg("-l", type=int, required=True, help="twice l")]),
    "table": ("derived relation tables for one p-choice", _cmd_q_table,
              [P_CHOICE]),
    "penrose": ("harmonic image of a degree -2 cocycle file", _cmd_q_penrose,
                [P_CHOICE, FILE]),
}
