"""``qadhm inst`` commands: the operator identities, the curvature audit and
the surjectivity of beta_P over the pencil grid, which ``slices`` decides
from the Krylov closure without building any operator."""

from .cli import (FILE, MAX_DEGREE_CAP, MAX_GRID_SIZE, P_CHOICE, CLIError,
                  _load_datum, arg)


def _cmd_inst_verify(args):
    from .qinstanton import ids_report
    d = _load_datum(args.file)
    report = {chart: ids_report(d, chart) for chart in ("I", "J")}
    return report, report["I"]["all_zero"] and report["J"]["all_zero"]


def _cmd_inst_curvature(args):
    from .qinstanton import curvature_asd
    return curvature_asd(_load_datum(args.file), args.p_choice), True


def _cmd_inst_slices(args):
    from .slices import pencil_grid, slice_line, slice_verdict
    if not 1 <= args.grid_size <= MAX_GRID_SIZE:
        raise CLIError(f"grid_size must lie in 1..{MAX_GRID_SIZE}")
    if not 0 <= args.dmax <= MAX_DEGREE_CAP:
        raise CLIError(f"dmax must lie in 0..{MAX_DEGREE_CAP}")
    d = _load_datum(args.file)
    reports = [slice_verdict(d, P, args.dmax)
               for P in pencil_grid(args.grid_size)]
    ok = all(rep["surjective"] for rep in reports)
    return {"dmax": args.dmax, "grid_size": args.grid_size,
            "reports": reports, "all_surjective": ok,
            "line": slice_line(d)}, ok


COMMANDS = {
    "verify": ("operator identities on both charts", _cmd_inst_verify,
               [FILE]),
    "curvature": ("curvature block audit with the ASD split",
                  _cmd_inst_curvature, [P_CHOICE, FILE]),
    "slices": ("slice surjectivity over the parameter grid", _cmd_inst_slices,
               [arg("--grid-size", type=int, default=12,
                    help="number of pencil parameter points, at most "
                         f"{MAX_GRID_SIZE} (default %(default)s)"),
                FILE,
                arg("--dmax", type=int, default=4,
                    help=f"degree cap of the slices, at most {MAX_DEGREE_CAP} "
                         "(default %(default)s)")]),
}
