"""Batch convergence studies over (mesh kind, degree, eps, N).

Each row solves the benchmark boundary-layer case on one mesh, records the
energy and L2 errors, and the driver derives the two experimental rates
between consecutive N in the doubling sequence:

    r2 = log(e_N / e_2N) / log 2
    rs = log(e_N / e_2N) / log(2 ln N / ln 2N)   (Shishkin meshes only).

Row failures are recorded with an ERR sentinel instead of aborting the
sweep.  Output formatting is deterministic: rerunning a config produces
byte-identical tables.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .basis import gauss_quadrature
from .cases import boundary_layer_case
from .errors import ERROR_QUAD_POINTS, error_record, rate_r2, rate_rs
from .meshes import MeshKind, MeshSpec, build_mesh
from .solver import assemble, solve

CSV_HEADER = ("mesh,k,epsilon,N,energy_error,energy_rate_r2,energy_rate_rs,"
              "l2u_error,l2u_rate,l2p_error,l2p_rate")

_KIND_ORDER = {MeshKind.SHISHKIN: 0, MeshKind.BAKHVALOV_SHISHKIN: 1,
               MeshKind.BAKHVALOV: 2}


@dataclass(frozen=True)
class StudyConfig:
    """Sweep definition; n_list must be a doubling sequence of even N."""

    mesh_kinds: tuple[MeshKind, ...] = (MeshKind.SHISHKIN,
                                        MeshKind.BAKHVALOV_SHISHKIN,
                                        MeshKind.BAKHVALOV)
    degrees: tuple[int, ...] = (0, 1, 2, 3)
    eps_list: tuple[float, ...] = (1e-8,)
    n_list: tuple[int, ...] = (16, 32, 64, 128, 256, 512)
    sigma_rule: str | float = "k+1.5"
    workers: int = 1

    def __post_init__(self) -> None:
        for n in self.n_list:
            if n < 4 or n % 2:
                raise ValueError(f"every N must be even and >= 4, got {n}")
        for prev, nxt in zip(self.n_list, self.n_list[1:]):
            if nxt != 2 * prev:
                raise ValueError(f"n_list must double: {prev} -> {nxt}")
        if not all(0 <= k <= 3 for k in self.degrees):
            raise ValueError("degrees must lie in 0..3")
        for eps in self.eps_list:
            if not 0.0 < eps < 1.0:
                raise ValueError(f"every eps must lie in (0, 1), got {eps}")
        for name, values in (("mesh kinds", self.mesh_kinds), ("degrees", self.degrees),
                             ("eps values", self.eps_list)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat, got {values}")
        if isinstance(self.sigma_rule, str):
            if self.sigma_rule != "k+1.5":
                raise ValueError("sigma_rule must be 'k+1.5' or a number")
        elif not 0.0 < self.sigma_rule < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma_rule}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def sigma_for(self, k: int) -> float:
        if isinstance(self.sigma_rule, str):
            return k + 1.5
        return float(self.sigma_rule)


@dataclass(frozen=True)
class StudyRow:
    """One (kind, k, eps, N) result; error fields are None on failure."""

    kind: MeshKind
    k: int
    eps: float
    n: int
    energy: float | None = None
    rate_r2: float | None = None
    rate_rs: float | None = None
    l2u: float | None = None
    l2u_rate: float | None = None
    l2p: float | None = None
    l2p_rate: float | None = None
    clamped: bool = False
    wall_time: float = 0.0
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[StudyRow, ...]

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)


def _run_single(kind: MeshKind, k: int, eps: float, n: int,
                sigma: float) -> StudyRow:
    start = time.perf_counter()
    case = boundary_layer_case(eps)
    mesh = build_mesh(MeshSpec(kind=kind, N=n, eps=eps, sigma=sigma,
                               alpha=case.problem.alpha))
    w = solve(assemble(case.problem, mesh, k))
    rec = error_record(case.exact_u, case.exact_p, case.exact_q, w,
                       case.problem, gauss_quadrature(ERROR_QUAD_POINTS))
    return StudyRow(kind=kind, k=k, eps=eps, n=n, energy=rec.energy,
                    l2u=rec.l2_u, l2p=rec.l2_p, clamped=mesh.clamped,
                    wall_time=time.perf_counter() - start)


def _run_single_safe(args) -> StudyRow:
    try:
        return _run_single(*args)
    except Exception as exc:  # failed rows are reported, never dropped
        kind, k, eps, n, _sigma = args
        return StudyRow(kind=kind, k=k, eps=eps, n=n,
                        failure=f"{type(exc).__name__}: {exc}")


def _job_args(config: StudyConfig):
    for kind in sorted(config.mesh_kinds, key=_KIND_ORDER.__getitem__):
        for k in sorted(config.degrees):
            for eps in sorted(config.eps_list):
                for n in config.n_list:
                    yield (kind, k, eps, n, config.sigma_for(k))


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Run the full sweep; deterministic row order (kind, k, eps, N)."""
    args = list(_job_args(config))
    if config.workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, len(args))) as pool:
            rows = list(pool.map(_run_single_safe, args))
    else:
        rows = [_run_single_safe(a) for a in args]
    return ConvergenceReport(rows=tuple(_attach_rates(rows)))


def _attach_rates(rows: list[StudyRow]) -> list[StudyRow]:
    """Fill rate columns from consecutive rows of each (kind, k, eps) group."""
    out: list[StudyRow] = []
    prev: StudyRow | None = None
    for row in rows:
        same_group = (prev is not None and prev.kind == row.kind
                      and prev.k == row.k and prev.eps == row.eps
                      and row.n == 2 * prev.n)
        if same_group and not row.failed and not prev.failed:
            updates = {}
            if prev.energy and row.energy:
                updates["rate_r2"] = rate_r2(prev.energy, row.energy)
                if row.kind is MeshKind.SHISHKIN:
                    updates["rate_rs"] = rate_rs(prev.energy, row.energy, prev.n)
            if prev.l2u and row.l2u:
                updates["l2u_rate"] = rate_r2(prev.l2u, row.l2u)
            if prev.l2p and row.l2p:
                updates["l2p_rate"] = rate_r2(prev.l2p, row.l2p)
            row = replace(row, **updates)
        out.append(row)
        prev = row
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt_err(v: float | None, failed: bool = False) -> str:
    if failed:
        return "ERR"
    return "" if v is None else f"{v:.2e}"


def _fmt_rate(v: float | None) -> str:
    return "" if v is None else f"{v:.2f}"


def emit_table(report: ConvergenceReport, output_format: str | None = None) -> str:
    """Render the report as CSV (fixed header) or Markdown grouped by degree."""
    fmt = output_format or "csv"
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in report.rows:
            lines.append(",".join([
                r.kind.value, str(r.k), f"{r.eps:g}", str(r.n),
                _fmt_err(r.energy, r.failed), _fmt_rate(r.rate_r2),
                _fmt_rate(r.rate_rs), _fmt_err(r.l2u, r.failed),
                _fmt_rate(r.l2u_rate), _fmt_err(r.l2p, r.failed),
                _fmt_rate(r.l2p_rate),
            ]))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown output format {fmt!r}")


def _emit_markdown(report: ConvergenceReport) -> str:
    kinds = sorted({r.kind for r in report.rows}, key=_KIND_ORDER.__getitem__)
    eps_values = sorted({r.eps for r in report.rows})
    degrees = sorted({r.k for r in report.rows})
    by_key = {(r.kind, r.k, r.eps, r.n): r for r in report.rows}
    lines: list[str] = []
    for eps in eps_values:
        lines.append(f"## epsilon = {eps:g}")
        lines.append("")
        for k in degrees:
            ns = sorted({r.n for r in report.rows
                         if r.k == k and r.eps == eps})
            if not ns:
                continue
            lines.append(f"### degree k = {k}")
            lines.append("")
            header = ["N"]
            for kind in kinds:
                rate_name = "rs" if kind is MeshKind.SHISHKIN else "r2"
                header += [f"{kind.value} error", f"{kind.value} {rate_name}"]
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for n in ns:
                cells = [str(n)]
                for kind in kinds:
                    row = by_key.get((kind, k, eps, n))
                    if row is None:
                        cells += ["", ""]
                        continue
                    rate = row.rate_rs if kind is MeshKind.SHISHKIN else row.rate_r2
                    cells += [_fmt_err(row.energy, row.failed), _fmt_rate(rate)]
                lines.append("| " + " | ".join(cells) + " |")
            lines.append("")
    return "\n".join(lines) + "\n"


def emit_plotdata(report: ConvergenceReport, out_dir) -> list[str]:
    """Write one whitespace-delimited file per (kind, k, eps).

    Columns: N, energy error, and a reference slope N^-(k+1/2) normalised to
    the first data point.  Lines with failed rows are skipped.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    groups: dict[tuple, list[StudyRow]] = {}
    for r in report.rows:
        groups.setdefault((r.kind, r.k, r.eps), []).append(r)
    for (kind, k, eps), rows in groups.items():
        rows = [r for r in sorted(rows, key=lambda r: r.n)
                if not r.failed and r.energy is not None]
        if not rows:
            continue
        path = out / f"energy_{kind.value}_k{k}_eps{eps:g}.dat"
        first = rows[0]
        slope = k + 0.5
        lines = ["# N  energy_error  reference_N^-(k+1/2)"]
        for r in rows:
            ref = first.energy * (first.n / r.n) ** slope
            lines.append(f"{r.n} {r.energy:.6e} {ref:.6e}")
        path.write_text("\n".join(lines) + "\n")
        written.append(str(path))
    return written
