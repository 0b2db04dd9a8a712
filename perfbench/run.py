"""ldglayer benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another
    python3 perfbench/selftest.py                  # short self-test

The benchmark imports ``ldglayer`` from ``src/`` of the checkout it sits in
and drives only public functions.  All load comes from this one process in
a closed loop: one pass (or one ``ldg-study`` call) starts after the
previous one has finished.  ``--trace 0`` measures the end-to-end metrics
with no tracing in place; ``--trace 1`` is a separate run that records
spans around each layer call and reports the per-layer metrics.  Every row
of every pass is checked against ``reference/``.  The last line of standard
output is one JSON object; everything else (environment, spans, per-row
diagnostics) goes to ``perfbench/out/``.  See README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
from tracing import ROW_CALLS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_PROBES = 5        # fresh processes per run; setup_s is their median
IMPORT_PROBES = 3
CALL_TIMEOUT_S = 150    # one ldg-study call or probe; the run must end in 180 s
TAIL_BEYOND = 10        # pass_s_tail needs this many passes above it
KIB_TO_MB = 1024 / 1e6  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Workload:
    """One sweep, given by the same fields as ``ldg-study`` flags."""

    name: str
    mesh: str
    degrees: tuple[int, ...]
    eps: tuple[float, ...]
    nmin: int
    nmax: int
    short_nmax: int       # --short keeps N in nmin..short_nmax
    workers: int
    via_cli: bool         # measured as ldg-study subprocesses, not in-process
    reference: str

    def n_list(self, short: bool) -> tuple[int, ...]:
        top = self.short_nmax if short else self.nmax
        out = [self.nmin]
        while out[-1] * 2 <= top:
            out.append(out[-1] * 2)
        return tuple(out)

    def cli_argv(self, short: bool) -> list[str]:
        n = self.n_list(short)
        return ["--mesh", self.mesh, "--k", ",".join(map(str, self.degrees)),
                "--eps", ",".join(f"{e:g}" for e in self.eps),
                "--nmin", str(n[0]), "--nmax", str(n[-1]),
                "--workers", str(self.workers)]

    def config(self, lib, short: bool, **over):
        kinds = tuple(lib.MeshKind.from_tag(t) for t in self.mesh.split(","))
        cfg = lib.StudyConfig(mesh_kinds=kinds, degrees=self.degrees,
                              eps_list=self.eps, n_list=self.n_list(short),
                              workers=self.workers)
        return replace(cfg, **over)

    def rows(self, lib, short: bool) -> list[tuple]:
        """(kind, k, eps, N) in the order run_study emits them."""
        cfg = self.config(lib, short)
        return [(kind, k, eps, n) for kind in cfg.mesh_kinds
                for k in cfg.degrees for eps in cfg.eps_list for n in cfg.n_list]


WORKLOADS = {w.name: w for w in (
    # 144 small systems (<= 6144 unknowns): per-row fixed costs show; the
    # long-double refinement runs on 91 rows.
    Workload("acceptance", "s,bs,b", (0, 1, 2, 3), (1e-8, 1e-12), 16, 512, 32,
             1, False, "acceptance.csv"),
    # 6 huge systems (up to 786k unknowns): LU fill, memory and the
    # refinement loop, which uses all 4 steps on every row.
    Workload("scale", "b", (1, 3), (1e-8,), 16384, 65536, 16384,
             1, False, "scale.json"),
    # The user-facing command with 2 workers: interpreter start, imports,
    # the process pool, CSV output; refinement runs on none of its rows.
    Workload("cli-moderate", "s,bs,b", (0, 1, 2, 3), (1e-4,), 16, 512, 32,
             2, True, "cli-moderate.csv"),
)}


def row_dof(row: tuple) -> int:
    _kind, k, _eps, n = row
    return 3 * (k + 1) * n


def csv_key(row: tuple) -> tuple[str, ...]:
    """The row's (mesh, k, epsilon, N) cells as emit_table prints them."""
    kind, k, eps, n = row
    return (kind.value, str(k), f"{eps:g}", str(n))


def row_id(row: tuple) -> str:
    return "/".join(csv_key(row))


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------

def import_ldglayer():
    """Import ldglayer from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ldglayer" / "__init__.py").is_file():
        sys.exit(f"error: no ldglayer sources under {src}")
    sys.path.insert(0, str(src))
    import ldglayer
    import ldglayer.cli
    import ldglayer.study
    if not Path(ldglayer.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: ldglayer imported from {ldglayer.__file__}, not {src}")
    return ldglayer


def warm_up(lib) -> None:
    """One tiny row: fills lazy caches and loads every module a row needs."""
    lib.emit_table(lib.run_study(lib.StudyConfig(
        mesh_kinds=(lib.MeshKind.SHISHKIN,), degrees=(1,), n_list=(16,))))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], tag: str):
    """Run argv to its end; return (stdout, returncode, wall s, peak RSS MB).

    The peak is wait4's ru_maxrss: the largest resident set of the child
    and of every descendant it waited for (the pool workers).
    """
    OUT_DIR.mkdir(exist_ok=True)
    out_path, err_path = OUT_DIR / f"{tag}.stdout", OUT_DIR / f"{tag}.stderr"
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        out = fo.read().decode()
    return out, proc.returncode, wall, usage.ru_maxrss * KIB_TO_MB


def probe(kind: str) -> float:
    """Seconds a fresh process needs for setup ("setup") or the import."""
    t0 = time.monotonic()
    out, rc, _wall, _rss = run_child(
        [sys.executable, str(HERE / "run.py"), "--probe", kind], "probe")
    if rc != 0:
        raise RuntimeError(f"{kind} probe exited with {rc}")
    value = float(out.split()[-1])
    return value - t0 if kind == "setup" else value


def run_probe(kind: str) -> None:
    if kind == "import":
        t0 = time.perf_counter()
        import_ldglayer()
        print(time.perf_counter() - t0)
    else:
        warm_up(import_ldglayer())
        print(time.monotonic())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Checker:
    """Counts attempted and failed rows against the workload's reference."""

    def __init__(self, wl: Workload, lib, short: bool):
        self.wl, self.lib, self.short = wl, lib, short
        self.ref = checks.load_reference(wl.reference)
        self.keys = [csv_key(r) for r in wl.rows(lib, short)] if short else None
        self.attempted = self.failed = 0

    def report(self, report, text: str) -> None:
        """A full pass: its rows and the table emit_table printed."""
        self.attempted += len(report.rows)
        if self.wl.reference.endswith(".json"):
            self.failed += checks.scale_failures(report.rows, self.ref)
        else:
            self.failed += checks.csv_failures(text, self.ref, self.keys)

    def single(self, row: tuple, report) -> None:
        """A one-row report: no neighbour, so no rates to compare."""
        self.attempted += 1
        if self.wl.reference.endswith(".json"):
            self.failed += checks.scale_failures(report.rows, self.ref,
                                                 check_rates=False)
        else:
            self.failed += min(1, checks.csv_failures(
                self.lib.emit_table(report), self.ref, [csv_key(row)],
                ignore_rates=True))

    def cli_output(self, text: str, rc: int, expected: str | None = None) -> None:
        """An ldg-study table; ``expected`` replaces the reference table."""
        n_rows = len(self.wl.rows(self.lib, self.short))
        self.attempted += n_rows
        if expected is None:
            bad = checks.csv_failures(text, self.ref, self.keys)
        else:
            bad = checks.csv_failures(text, expected)
        if rc != 0:
            bad = max(bad, 1)
        self.failed += min(n_rows, bad)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]):
    """Highest percentile with TAIL_BEYOND samples above it, or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    value = sorted(samples)[n - TAIL_BEYOND - 1]
    return value, 100.0 * (n - TAIL_BEYOND) / n, n


def measure(wl: Workload, lib, seconds: float, short: bool, checker: Checker):
    rows = wl.rows(lib, short)
    dof = sum(row_dof(r) for r in rows)
    times: list[float] = []
    rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        if wl.via_cli:
            out, rc, wall, rss = run_child(
                [sys.executable, "-m", "ldglayer.cli", *wl.cli_argv(short)],
                "ldg-study")
            checker.cli_output(out, rc)
            rss_mb = max(rss_mb, rss)
        else:
            t0 = time.perf_counter()
            report = lib.run_study(wl.config(lib, short))
            text = lib.emit_table(report)
            wall = time.perf_counter() - t0
            checker.report(report, text)
        times.append(wall)
    if not wl.via_cli:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * KIB_TO_MB
    metrics = {
        "pass_s_p50": (statistics.median(times), "s"),
        "dof_per_s": (dof / statistics.median(times), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, times


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

LAYER_SPANS = {"solver.solve_s": "solve", "solver.assemble_s": "assemble",
               "errors.error_record_s": "error_record",
               "cases.boundary_layer_case_s": "case",
               "meshes.build_mesh_s": "mesh"}


def traced(wl: Workload, lib, seconds: float, short: bool, seed: int,
           checker: Checker, tracer: Tracer):
    """Alternate an untraced pass with a traced per-row loop until the time
    is up, then call cli.main once; return per-layer metrics and the
    per-row diagnostics of the first traced loop.

    The two swap order on every iteration, so that what the first pass in a
    process pays (fresh memory, cold caches) does not bias overhead_frac.
    """
    max_refine = inspect.signature(lib.solve).parameters["max_refine"].default
    import_s = statistics.median(
        probe("import") for _ in range(1 if short else IMPORT_PROBES))
    rows = wl.rows(lib, short)
    order = rows[:]
    random.Random(seed).shuffle(order)
    per_pass: list[dict] = []
    diagnostics: list[dict] = []
    steps = {"untraced": lambda: untraced_pass(wl, lib, short, checker, tracer),
             "traced": lambda: traced_loop(wl, lib, short, checker, tracer, order)}
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        names = ["untraced", "traced"][::-1 if len(per_pass) % 2 else 1]
        done = {name: steps[name]() for name in names}
        untraced_s, table, metrics = done["untraced"]
        traced_s, spans = done["traced"]
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics.update(summarise(spans, tracer, len(rows), max_refine))
        per_pass.append(metrics)
        if not diagnostics:
            diagnostics = row_diagnostics(spans, rows)

    buf = io.StringIO()
    with tracer.span("cli.main") as sp_cli, contextlib.redirect_stdout(buf):
        rc = lib.cli.main(wl.cli_argv(short))
    checker.cli_output(buf.getvalue(), rc, expected=table)

    out = {name: statistics.median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["cli.import_s"] = import_s
    out["cli.main_s"] = sp_cli.end - sp_cli.start
    return out, diagnostics


def untraced_pass(wl, lib, short, checker, tracer):
    """run_study with one worker and emit_table, with a span around each;
    for a pooled workload also run_study with its workers.  Returns the
    one-worker run_study seconds, the table and two per-layer metrics."""
    with tracer.span("run_study", workers=1) as sp:
        report = lib.run_study(wl.config(lib, short, workers=1))
    with tracer.span("emit_table") as sp_emit:
        table = lib.emit_table(report)
    checker.report(report, table)
    untraced_s = sp.end - sp.start
    if wl.workers > 1:
        with tracer.span("run_study", workers=wl.workers) as sp:
            report = lib.run_study(wl.config(lib, short))
        checker.report(report, lib.emit_table(report))
    busy = sum(r.wall_time for r in report.rows)
    return untraced_s, table, {
        "study.emit_table_s": sp_emit.end - sp_emit.start,
        "study.pool_efficiency": busy / (wl.workers * (sp.end - sp.start)),
    }


def traced_loop(wl, lib, short, checker, tracer, order):
    """Every row as a one-row run_study, its per-row calls traced.
    Returns the loop's seconds and its spans."""
    first = len(tracer.spans)
    singles = []
    t0 = time.perf_counter()
    with tracer.patched(lib.study):
        for row in order:
            tracer.row = row_id(row)
            kind, k, eps, n = row
            with tracer.span("row"), tracer.span("run_study", workers=1):
                singles.append(lib.run_study(wl.config(
                    lib, short, mesh_kinds=(kind,), degrees=(k,),
                    eps_list=(eps,), n_list=(n,), workers=1)))
    tracer.row = None
    traced_s = time.perf_counter() - t0
    for row, single in zip(order, singles):
        checker.single(row, single)
    return traced_s, tracer.spans[first:]


def summarise(spans, tracer: Tracer, n_rows: int, max_refine: int) -> dict:
    """Per-layer totals over the spans of one traced loop."""
    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    children = tracer.children()
    solves = [s.fields for s in spans if s.name == "solve"]
    refined = [f for f in solves if f["refine_steps"] > 0]
    out = {metric: total(name) for metric, name in LAYER_SPANS.items()}
    out.update({
        "solver.refine_steps": sum(f["refine_steps"] for f in solves),
        "solver.refined_row_frac": len(refined) / n_rows,
        "solver.refine_exhausted_frac": (
            sum(f["refine_steps"] >= max_refine for f in refined) / len(refined)
            if refined else 0.0),
        "solver.assemble_nnz": sum(s.fields["nnz"] for s in spans
                                   if s.name == "assemble"),
        "errors.quad_points": sum(s.fields["quad_points"] for s in spans
                                  if s.name == "error_record"),
        "study.run_study_s": total("run_study"),
        "study.self_s": sum(tracer.self_time(s, children.get(s.id, []))
                            for s in spans if s.name == "run_study"),
    })
    return out


def row_diagnostics(spans, rows) -> list[dict]:
    """One record per row: SolveInfo, energy parts and stage seconds."""
    by_row: dict[str, dict] = {}
    for s in spans:
        rec = by_row.setdefault(s.row, {"row": s.row})
        if s.name in ROW_CALLS.values():
            rec[f"{s.name}_s"] = s.end - s.start
            rec.update(s.fields)
    out = []
    for row in rows:
        rec = by_row[row_id(row)]
        rec["dof"] = row_dof(row)
        rec["residual_over_rhs"] = (rec["residual_inf"] / rec["rhs_inf"]
                                    if rec["rhs_inf"] else 0.0)
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = "{name} {version}".format(**deps["blas"])
        lapack = "{name} {version}".format(**deps["lapack"])
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "blas": blas, "lapack": lapack, "platform": platform.platform(),
        "seed": seed,
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None         # checkouts without history carry src_sha256 only
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric_units(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    units = metric_units(bool(args.trace))
    lib = import_ldglayer()
    setup_s = None if args.trace else statistics.median(
        probe("setup") for _ in range(1 if args.short else SETUP_PROBES))
    warm_up(lib)
    checker = Checker(wl, lib, args.short)
    extra: dict = {}
    if args.trace:
        tracer = Tracer()
        values, diagnostics = traced(wl, lib, args.seconds, args.short,
                                     args.seed, checker, tracer)
        stem = f"{wl.name}-seed{args.seed}"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
        with open(OUT_DIR / f"rows-{stem}.jsonl", "w") as fh:
            for rec in diagnostics:
                fh.write(json.dumps(rec) + "\n")
        metrics = {name: (values[name], units[name]) for name in units}
    else:
        metrics, times = measure(wl, lib, args.seconds, args.short, checker)
        metrics["setup_s"] = (setup_s, "s")
        t = tail(times)
        extra["pass_s_tail"] = (
            {"value": t[0], "unit": "s", "percentile": t[1], "passes": t[2]}
            if t else {"value": None, "unit": "s", "passes": len(times),
                       "note": f"needs more than {TAIL_BEYOND} passes"})
        extra["pass_s"] = times
    extra["fail_frac"] = {"value": checker.failed / max(checker.attempted, 1),
                          "unit": "frac"}

    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"workload": wl.name, "trace": args.trace,
                              "seconds": args.seconds, "short": args.short,
                              "environment": env, "extra": extra, **result},
                             indent=1) + "\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} blas {env['blas']}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:14s} {name:30s} {value:.6g} {unit}")
    for name, rec in extra.items():
        if isinstance(rec, dict):
            info = "".join(f" {k}={v:.4g}" if isinstance(v, float) else f" {k}={v}"
                           for k, v in rec.items() if k not in ("value", "unit"))
            value = "n/a" if rec["value"] is None else f"{rec['value']:.6g}"
            print(f"{wl.name:14s} {name:30s} {value} {rec['unit']}{info}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--short"] if args.short else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(done.stderr)
        ok = done.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        print(f"{name:14s} {'correct' if ok else 'FAILED'}")
        status |= not ok
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the rows of the traced per-layer loop")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="N up to the short maximum and one probe (self-test)")
    parser.add_argument("--probe", choices=("setup", "import"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        run_probe(args.probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
