"""``qadhm inst`` commands: the operator identities, the curvature audit and
slice surjectivity over the pencil grid."""

from .cli import MAX_DEGREE_CAP, CLIError, _emit_json, _load_datum, arg


def _cmd_inst_verify(args, cfg):
    from .qinstanton import ids_report
    d = _load_datum(args.file)
    report = {chart: ids_report(d, chart) for chart in ("I", "J")}
    _emit_json(report, cfg)
    return report["I"]["all_zero"] and report["J"]["all_zero"]


def _cmd_inst_curvature(args, cfg):
    from .qinstanton import (QInstantonError, curvature_asd,
                             curvature_report_json)
    d = _load_datum(args.file)
    try:
        report = curvature_asd(d, cfg.p_choice)
    except QInstantonError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(curvature_report_json(report), cfg)
    return True


def _cmd_inst_slices(args, cfg):
    from .qinstanton import QInstantonError, pencil_grid, slice_rank_grid
    d = _load_datum(args.file)
    if not 0 <= args.dmax <= MAX_DEGREE_CAP:
        raise CLIError(f"dmax must lie in 0..{MAX_DEGREE_CAP}")
    grid = pencil_grid(cfg.grid_size)
    try:
        reports = slice_rank_grid(d, grid, args.dmax)
    except QInstantonError as exc:
        raise CLIError(str(exc)) from exc
    ok = all(rep["surjective"] for rep in reports)
    _emit_json({"dmax": args.dmax, "grid_size": cfg.grid_size,
                "reports": reports, "all_surjective": ok}, cfg)
    return ok


_FILE = arg("file")
# subcommand -> (help, handler, arguments), in the order the help lists them
COMMANDS = {
    "verify": ("operator identities on both charts", _cmd_inst_verify,
               [_FILE]),
    "curvature": ("curvature block audit with the ASD split",
                  _cmd_inst_curvature, [_FILE]),
    "slices": ("slice surjectivity over the parameter grid", _cmd_inst_slices,
               [_FILE,
                arg("--dmax", type=int, default=4,
                    help=f"degree cap of the slices, at most {MAX_DEGREE_CAP} "
                         "(default %(default)s)")]),
}
