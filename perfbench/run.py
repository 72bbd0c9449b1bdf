"""Benchmark runner for the ``qadhm`` CLI.

    python3 perfbench/run.py --workload {stability,slices,qcalculus}
                             --seed N --seconds S --trace {0,1}

The ops import ``qadhm`` from ``src/`` next to this directory.  One client,
closed loop: the workload's op list is run pass after pass, one op at a time,
each op a fresh ``python -m qadhm.cli ...`` process.  There are at least
``MIN_PASSES`` passes, and a further pass starts only while it should end
within ``S`` seconds.  Every op's output is checked (``checks.py``) and must
be byte-identical in every pass.

On a shared host the CPU speed can drift by tens of percent over seconds to
minutes, and that drift moves every process alike.  So a fresh
``reference.py`` process, fixed pure-Python work that imports nothing from
``qadhm``, runs before and after every timed process.  Each timed process is
reported in reference-speed seconds: its wall time times ``REF_NOMINAL_S``
over the mean of the two reference times around it.  A change to ``qadhm``
moves these times as it moves wall time; host drift mostly cancels.  Raw
wall times are kept in the results file.

With ``--trace 1`` the same timed loop runs first, then one more pass with
each op under ``launcher.py``, which splits its time by module, then the
in-process probes (``probes.py``).  The last line of stdout is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (per-op times, exit codes, stdout digests,
verdicts, run metadata) goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import launcher
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 2
# The highest percentile that keeps >= 10 of the per-op samples beyond it
# (nearest rank) when a run makes only MIN_PASSES passes: 2 x 27, 2 x 26 and
# 2 x 26 ops.
TAIL_PERCENTILE = {"stability": 81, "slices": 80, "qcalculus": 80}
SETUP_REPS = 5
INTERP_REPS = 10
COLD_REPS = 3
OP_TIMEOUT_S = 30.0
# Nothing is started after this many seconds of a run, so a hang or a large
# regression ends the run with failed ops instead of stalling it.
RUN_BUDGET_S = 140.0
# Reported times are wall times scaled to a host on which one reference.py
# process takes this long.
REF_NOMINAL_S = 0.1

END_TO_END = {
    "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
MODULES = ("cli", "exactcore", "adhm", "monad", "qspacetime", "qcalculus",
           "qinstanton")
# Extra counters of launcher.TARGETS reported as "<name>.<extra>".
COUNTED_EXTRAS = ("cells", "polys")


def layer_units():
    """Name -> unit of every per-layer metric, in a fixed order."""
    units = {"cli.interp_s": "s", "cli.import_s": "s", "cli.handler_s": "s",
             "cli.emit_s": "s"}
    for name, _, _, extra in launcher.TARGETS:
        if name.startswith("cli."):
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if extra in COUNTED_EXTRAS:
            units[f"{name}.{extra}"] = "count"
    units["qspacetime.sort_memo_entries"] = "count"
    units["qinstanton.wblock_frac"] = "frac"
    for mod in MODULES:
        units[f"{mod}.self_frac"] = "frac"
    for probe in ("gauss_mul", "qlaurent_mul", "qrat_add", "rank_dense",
                  "rank_truncated", "build_q_ops", "derive_table_cold"):
        units[f"probe.{probe}_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["bench.fail_frac"] = "frac"
    units["bench.op_samples"] = "count"
    return units


class Budget:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def spawn(cmd, cwd, env, timeout, out_path):
    """Run cmd to completion with stdin closed and stdout to out_path.

    Returns (wall seconds, exit code, ru_maxrss in KiB, timed out); the
    process is killed once it runs past ``timeout``."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished = select.select([pidfd], [], [], max(timeout, 0))[0]
        finally:
            os.close(pidfd)
        if not finished:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, not finished


class Reference:
    """Runs reference.py processes and checks that each prints the same.

    ``run()`` runs one.  ``calibrate(rec)`` runs the next one and gives the
    timed record ``rec`` the mean of the two reference times around it
    (``ref_s``) and its time in reference-speed seconds (``cal_s``)."""

    def __init__(self, cwd, env):
        self.cwd, self.env = cwd, env
        self.out = Path(cwd) / "reference.out"
        self.expect = None
        self.times = []

    def run(self):
        wall, code, _, timed_out = spawn(
            [sys.executable, str(HERE / "reference.py")], self.cwd, self.env,
            OP_TIMEOUT_S, self.out)
        stdout = self.out.read_bytes()
        if self.expect is None:
            self.expect = stdout
        if code != 0 or timed_out or stdout != self.expect:
            raise RuntimeError(f"reference.py failed: exit {code}, "
                               f"stdout {stdout[:200]!r}")
        self.times.append(wall)
        return wall

    def calibrate(self, rec):
        before = self.times[-1]
        rec["ref_s"] = (before + self.run()) / 2
        rec["cal_s"] = rec["wall_s"] * REF_NOMINAL_S / rec["ref_s"]


class Runner:
    """Runs ops of one workload from its input directory and records them."""

    def __init__(self, ops, inputs, env, budget):
        self.ops, self.inputs, self.env, self.budget = ops, inputs, env, budget
        self.records = [[] for _ in ops]     # per op, one dict per execution
        self.reference = Reference(inputs, env)

    def run_op(self, i, prefix, tag):
        op = self.ops[i]
        out = self.inputs / f"op{i:02d}.{tag}.out"
        left = self.budget.left()
        if left <= 0:
            rec = {"ok": False, "verdict": "not run: run time budget spent"}
            self.records[i].append(rec)
            return rec
        wall, code, rss, timed_out = spawn(
            [*prefix, *op["argv"]], self.inputs, self.env,
            min(OP_TIMEOUT_S, left), out)
        stdout = out.read_bytes()
        if timed_out:
            ok, verdict = False, f"killed after {wall:.1f} s"
        else:
            ok, verdict = checks.check(op, code, stdout)
        if not ok:
            err = Path(str(out) + ".err").read_text("utf-8", "replace")
            verdict += (" | stderr: " + err[-400:]) if err else ""
        rec = {"tag": tag, "wall_s": wall, "exit": code, "rss_kb": rss,
               "sha256": hashlib.sha256(stdout).hexdigest(), "ok": ok,
               "verdict": verdict}
        self.records[i].append(rec)
        return rec

    def run_pass(self, prefix, tag):
        """One execution of every op, each between two reference runs."""
        self.reference.run()
        for i in range(len(self.ops)):
            rec = self.run_op(i, prefix, tag)
            if "wall_s" in rec:
                self.reference.calibrate(rec)

    def mark_divergent(self):
        """Fail every execution whose stdout differs from the op's first."""
        for recs in self.records:
            first = next((r["sha256"] for r in recs if "sha256" in r), None)
            for r in recs:
                if r.get("sha256", first) != first and r["ok"]:
                    r["ok"] = False
                    r["verdict"] = "stdout differs between passes"

    def executions(self):
        return [r for recs in self.records for r in recs]


def nearest_rank(values, pct):
    """(value at percentile pct by nearest rank, samples beyond it)."""
    ordered = sorted(values)
    idx = max(0, -(-pct * len(ordered) // 100) - 1)
    return ordered[idx], len(ordered) - idx - 1


def timed_metrics(runner, workload, setup, key="cal_s"):
    """End-to-end metrics from the key time (cal_s or the raw wall_s)."""
    timed = [[r for r in recs if r.get("tag") == "timed" and "wall_s" in r]
             for recs in runner.records]
    pooled = [r[key] for recs in timed for r in recs]
    tail, beyond = nearest_rank(pooled, TAIL_PERCENTILE[workload])
    metrics = {
        "wall_s": sum(statistics.median(r[key] for r in recs)
                      for recs in timed),
        "op_p50_s": statistics.median(pooled),
        "op_tail_s": tail,
        "setup_s": statistics.median(r[key] for r in setup),
        "peak_rss_mb": max(r["rss_kb"] for recs in timed for r in recs) / 1024,
    }
    tail_info = {"percentile": TAIL_PERCENTILE[workload],
                 "samples": len(pooled), "beyond": beyond}
    return metrics, tail_info


def setup(workload, seed, run_dir, env):
    """Generate the inputs SETUP_REPS times, each followed by a warm-up
    import, each between two reference runs; returns (one record per
    repetition, input dir, manifest)."""
    times, manifests = [], []
    reference = Reference(run_dir, env)
    reference.run()
    for k in range(SETUP_REPS):
        inputs = run_dir / f"inputs{k}"
        inputs.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "workloads.py"), str(SRC),
                        workload, str(seed), str(inputs)],
                       env=env, stdin=subprocess.DEVNULL, check=True)
        subprocess.run([sys.executable, "-c", "import qadhm.cli"], env=env,
                       stdin=subprocess.DEVNULL, check=True)
        rec = {"wall_s": time.perf_counter() - t0}
        reference.calibrate(rec)
        times.append(rec)
        manifests.append((inputs / "manifest.json").read_text("utf-8"))
    if len(set(manifests)) != 1:
        raise RuntimeError("input generation is not deterministic")
    return times, inputs, json.loads(manifests[0])


def trace_pass(runner, inputs):
    """One pass with every op under launcher.py, each between two reference
    runs; returns merged traces."""
    traces = []
    runner.reference.run()
    for i in range(len(runner.ops)):
        path = inputs / f"op{i:02d}.trace.json"
        rec = runner.run_op(i, [sys.executable, str(HERE / "launcher.py"),
                                str(path)], "traced")
        if "wall_s" in rec:
            runner.reference.calibrate(rec)
        if path.exists():
            traces.append((rec, json.loads(path.read_text("utf-8"))))
    return traces


def layer_metrics(traces, interp, probes, untraced_wall):
    """(per-layer metrics, absent trace targets) from the traced pass."""
    units = layer_units()
    layer = dict.fromkeys(units, 0)
    agg = {}
    for _, tr in traces:
        for name, (calls, self_s, incl_s, extra) in tr["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += calls
            a[1] += self_s
            a[2] += incl_s
            a[3] += extra
    for name, _, _, extra in launcher.TARGETS:
        if name.startswith("cli.") or name not in agg:
            continue
        calls, self_s, _, count = agg[name]
        layer[f"{name}.calls"] = calls
        layer[f"{name}.self_s"] = self_s
        if extra in COUNTED_EXTRAS:
            layer[f"{name}.{extra}"] = count
        elif extra == "wblock" and calls:
            layer["qinstanton.wblock_frac"] = count / calls

    def per_op(fn):
        return statistics.median([fn(tr) for _, tr in traces] or [0])

    layer["cli.interp_s"] = statistics.median(interp)
    layer["cli.import_s"] = per_op(lambda tr: tr["import_s"])
    layer["cli.handler_s"] = per_op(
        lambda tr: tr["agg"].get(launcher.HANDLER, [0, 0, 0])[2])
    layer["cli.emit_s"] = per_op(
        lambda tr: tr["agg"].get("cli.emit", [0, 0])[1])
    layer["qspacetime.sort_memo_entries"] = max(
        (tr["sort_memo_entries"] or 0 for _, tr in traces), default=0)

    traced_wall = sum(rec["wall_s"] for rec, _ in traces if "wall_s" in rec)
    traced_cal = sum(rec["cal_s"] for rec, _ in traces if "cal_s" in rec)
    for mod in MODULES:
        self_s = sum(a[1] for name, a in agg.items()
                     if name.split(".")[0] == mod)
        layer[f"{mod}.self_frac"] = self_s / traced_wall if traced_wall else 0
    layer.update(probes)
    layer["trace.overhead_frac"] = traced_cal / untraced_wall - 1
    return {k: layer[k] for k in units}, sorted(
        {a for _, tr in traces for a in tr["absent"]})


def run_probes(inputs, env, budget):
    """In-process layer probes plus COLD_REPS cold derive_table processes:
    {"metrics": {name: seconds}, "absent": [probes that could not run]}."""
    out = inputs / "probes.out"
    result = {"metrics": {}, "absent": []}
    cold = []
    for args in [[]] + [["cold"]] * COLD_REPS:
        _, code, _, timed_out = spawn(
            [sys.executable, str(HERE / "probes.py"), str(SRC), *args],
            inputs, env, min(OP_TIMEOUT_S, budget.left()), out)
        if code != 0 or timed_out:
            result["absent"].append(f"probes.py {args}: exit {code}")
            continue
        run = json.loads(out.read_bytes())
        result["absent"] += run["absent"]
        if args:
            cold += run["metrics"].values()
        else:
            result["metrics"].update(run["metrics"])
    if cold:
        result["metrics"]["probe.derive_table_cold_s"] = statistics.median(cold)
    return result


def run_metadata(seed):
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, stdin=subprocess.DEVNULL, text=True,
                timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qadhm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {"commit": commit or None, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "sympy": sympy_version,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qadhm" / "cli.py").is_file():
        sys.exit(f"run.py: no qadhm sources under {SRC}; "
                 "run from the root of a source checkout")

    budget = Budget(RUN_BUDGET_S)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_times, inputs, manifest = setup(args.workload, args.seed, run_dir,
                                          env)

    runner = Runner(manifest["ops"], inputs, env, budget)
    prefix = [sys.executable, "-m", "qadhm.cli"]
    # Start another pass only while it should end within --seconds.
    t0 = time.perf_counter()
    passes, last = 0, 0.0
    while passes < MIN_PASSES or (
            time.perf_counter() - t0 + last <= args.seconds
            and budget.left() > 0):
        t_pass = time.perf_counter()
        runner.run_pass(prefix, "timed")
        last = time.perf_counter() - t_pass
        passes += 1
    e2e, tail_info = timed_metrics(runner, args.workload, setup_times)

    result = {"meta": run_metadata(args.seed), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace, "passes": passes,
              "setup_s_samples": setup_times, "op_tail": tail_info,
              "ref_nominal_s": REF_NOMINAL_S,
              "reference_s": runner.reference.times,
              "end_to_end": e2e,
              "end_to_end_raw": timed_metrics(runner, args.workload,
                                              setup_times, "wall_s")[0]}
    if args.trace:
        interp = []
        for _ in range(INTERP_REPS):
            interp.append(spawn([sys.executable, "-c", "pass"], inputs, env,
                                OP_TIMEOUT_S, inputs / "interp.out")[0])
        traces = trace_pass(runner, inputs)
        probes = run_probes(inputs, env, budget)
        layer, absent = layer_metrics(traces, interp, probes["metrics"],
                                      e2e["wall_s"])
        absent += probes["absent"]
        result.update({"per_layer": layer, "absent": absent})
    runner.mark_divergent()
    execs = runner.executions()
    failed = sum(not r["ok"] for r in execs)
    if args.trace:
        result["per_layer"]["bench.fail_frac"] = failed / len(execs)
        result["per_layer"]["bench.op_samples"] = tail_info["samples"]
    result["ops"] = [{"argv": op["argv"], "check": op["check"],
                      "runs": recs}
                     for op, recs in zip(runner.ops, runner.records)]
    result.update({"attempted": len(execs), "failed": failed,
                   "fail_frac": failed / len(execs)})
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{run_dir.name}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True), "utf-8")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_units()[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(execs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
