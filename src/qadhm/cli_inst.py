"""``qadhm inst`` commands: the operator identities, the curvature audit and
slice surjectivity over the pencil grid."""

from .cli import MAX_DEGREE_CAP, CLIError, _emit_json, _load_datum


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


def add_commands(sub, common):
    p = sub.add_parser("verify", parents=[common],
                       help="operator identities on both charts")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_inst_verify)
    p = sub.add_parser("curvature", parents=[common],
                       help="curvature block audit with the ASD split")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_inst_curvature)
    p = sub.add_parser("slices", parents=[common],
                       help="slice surjectivity over the parameter grid")
    p.add_argument("file")
    p.add_argument("--dmax", type=int, default=4,
                   help=f"degree cap of the slices, at most {MAX_DEGREE_CAP} "
                        "(default %(default)s)")
    p.set_defaults(handler=_cmd_inst_slices)
