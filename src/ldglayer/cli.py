r"""Command-line driver for convergence studies and debug dumps.

A study row is fixed by (mesh kind, k, eps, N, sigma) alone: the mesh takes
alpha from the problem, assembly uses k + 3 Gauss points per element and the
error norms 20 (``errors.ERROR_QUAD_POINTS``).

Study flags (the default action)::

    ldg-study --mesh s,bs,b --k 0..3 --eps 1e-4,1e-8,1e-12 \
              --nmin 16 --nmax 512 --sigma auto --format csv --out table.csv \
              --plot-dir plots --workers 2

An optional plain-text config file (``--config``) holds ``key=value`` lines
with the same keys as the long flags; explicit flags override the file.
Exit code: 0 if every row ran, 1 if a row failed (its cells read ERR), 2 on
bad input; bad flag and config values are rejected before any row runs.

Debug subcommands::

    ldg-study mesh-dump --mesh s --n 16 --eps 1e-4 --sigma 2.5
    ldg-study matrix-dump --mesh s --n 8 --eps 1e-4 --k 1 --sigma 2.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cases import boundary_layer_case
from .meshes import MeshKind, MeshSpec, build_mesh
from .solver import assemble
from .study import StudyConfig, emit_plotdata, emit_table, run_study

_STUDY_KEYS = ("mesh", "k", "eps", "nmin", "nmax", "sigma", "format", "out",
               "plot-dir", "workers")
_FORMATS = ("csv", "markdown")


def _parse_kinds(text: str) -> tuple[MeshKind, ...]:
    return tuple(MeshKind.from_tag(tag) for tag in text.split(","))


def _parse_degrees(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = (int(part) for part in text.split(".."))
        if hi < lo:
            raise ValueError(f"degree range {text!r} is reversed")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def _parse_eps(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _doubling(nmin: int, nmax: int) -> tuple[int, ...]:
    if nmin < 1:
        raise ValueError(f"nmin must be at least 1, got {nmin}")
    if nmax < nmin:
        raise ValueError(f"nmax={nmax} < nmin={nmin}")
    out = [nmin]
    while out[-1] * 2 <= nmax:
        out.append(out[-1] * 2)
    return tuple(out)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _STUDY_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value
    return values


def _study_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldg-study",
        description="Convergence study for the layer-adapted LDG solver")
    parser.add_argument("--mesh", default="s,bs,b",
                        help="comma list of kinds: s,bs,b")
    parser.add_argument("--k", default="0..3",
                        help="degrees, e.g. '0..3' or '1,2'")
    parser.add_argument("--eps", default="1e-8", help="comma list of eps values")
    parser.add_argument("--nmin", type=int, default=16,
                        help="smallest N (doubling sweep)")
    parser.add_argument("--nmax", type=int, default=512, help="largest N")
    parser.add_argument("--sigma", default="auto",
                        help="'auto' (k+1.5) or an explicit value")
    parser.add_argument("--format", choices=_FORMATS, default="csv",
                        help="table format (default csv)")
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--plot-dir", help="also write per-curve plot data here")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel row workers")
    parser.add_argument("--config", help="key=value config file; flags win")
    return parser


def _write(text: str, path: str) -> None:
    """Write text to path, '-' meaning stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _run_study_command(argv: list[str]) -> int:
    parser = _study_parser()
    config_path = parser.parse_known_args(argv)[0].config
    if config_path:
        parser.set_defaults(**{key.replace("-", "_"): value for key, value
                               in _read_config_file(config_path).items()})
    args = parser.parse_args(argv)
    if args.format not in _FORMATS:  # argparse checks choices of flags only
        raise ValueError(f"unknown output format {args.format!r}")
    if args.out != "-" and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ValueError(f"--out {args.out!r} is a directory or lies in none")
    if args.plot_dir:
        plot_dir = Path(args.plot_dir)     # emit_plotdata makes it and its parents
        if not next(p for p in (plot_dir, *plot_dir.parents) if p.exists()).is_dir():
            raise ValueError(f"--plot-dir {args.plot_dir!r} is a file or lies under one")

    config = StudyConfig(
        mesh_kinds=_parse_kinds(args.mesh), degrees=_parse_degrees(args.k),
        eps_list=_parse_eps(args.eps), n_list=_doubling(args.nmin, args.nmax),
        sigma_rule="k+1.5" if args.sigma == "auto" else float(args.sigma),
        workers=args.workers)

    report = run_study(config)
    _write(emit_table(report, args.format), args.out)
    if args.plot_dir:
        emit_plotdata(report, args.plot_dir)
    for row in report.rows:
        if row.failed:
            print(f"FAILED {row.kind.value} k={row.k} eps={row.eps:g} "
                  f"N={row.n}: {row.failure}", file=sys.stderr)
    return 1 if report.any_failed else 0


def _mesh_args() -> argparse.ArgumentParser:
    """Mesh and output flags shared by the dump subcommands."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--mesh", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--eps", type=float, required=True)
    parser.add_argument("--sigma", type=float, required=True)
    parser.add_argument("--out", default="-")
    return parser


def _dump_command(name: str, argv: list[str]) -> int:
    """mesh-dump: the mesh nodes; matrix-dump: the assembled matrix (COO)."""
    parser = argparse.ArgumentParser(prog=f"ldg-study {name}",
                                     parents=[_mesh_args()])
    if name == "matrix-dump":
        parser.add_argument("--k", type=int, required=True)
    args = parser.parse_args(argv)
    kind = MeshKind.from_tag(args.mesh)
    if name == "mesh-dump":
        text = build_mesh(MeshSpec(kind, args.n, args.eps, args.sigma)).dump_nodes()
    else:
        problem = boundary_layer_case(args.eps).problem
        mesh = build_mesh(MeshSpec(kind, args.n, args.eps, args.sigma, problem.alpha))
        text = assemble(problem, mesh, args.k).dump_coo()
    _write(text, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in ("mesh-dump", "matrix-dump"):
            return _dump_command(argv[0], argv[1:])
        return _run_study_command(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
