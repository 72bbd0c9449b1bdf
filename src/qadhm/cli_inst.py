"""``qadhm inst`` commands: the operator identities, the curvature audit and
the surjectivity of beta_P over the pencil grid, which ``slices`` decides
from the Krylov closure without building any operator."""

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
    from .slices import pencil_grid, slice_line, slice_verdict
    d = _load_datum(args.file)
    if not 0 <= args.dmax <= MAX_DEGREE_CAP:
        raise CLIError(f"dmax must lie in 0..{MAX_DEGREE_CAP}")
    reports = [slice_verdict(d, P, args.dmax)
               for P in pencil_grid(cfg.grid_size)]
    ok = all(rep["surjective"] for rep in reports)
    _emit_json({"dmax": args.dmax, "grid_size": cfg.grid_size,
                "reports": reports, "all_surjective": ok,
                "line": slice_line(d)}, cfg)
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
