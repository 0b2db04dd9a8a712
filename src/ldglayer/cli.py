"""Command-line driver for convergence studies and debug dumps.

Study flags (the default action)::

    ldg-study --mesh s,bs,b --k 0..3 --eps 1e-4,1e-8,1e-12 \
              --nmin 16 --nmax 512 --sigma auto --format csv --out table.csv

An optional plain-text config file (``--config``) holds ``key=value`` lines
with the same keys as the long flags; explicit flags override the file.
Exit code is 0 iff no row failed.

Debug subcommands::

    ldg-study mesh-dump --mesh s --n 16 --eps 1e-4 --sigma 2.5
    ldg-study matrix-dump --mesh s --n 8 --eps 1e-4 --k 1 --sigma 2.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cases import boundary_layer_case
from .errors import ERROR_QUAD_POINTS
from .meshes import MeshKind, MeshSpec, build_mesh
from .solver import assemble
from .study import StudyConfig, emit_plotdata, emit_table, run_study

_STUDY_KEYS = ("mesh", "k", "eps", "nmin", "nmax", "sigma", "format", "out",
               "plot-dir", "workers", "quad-assembly", "quad-error")


def _parse_kinds(text: str) -> tuple[MeshKind, ...]:
    return tuple(MeshKind.from_tag(tag) for tag in text.split(","))


def _parse_degrees(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
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
    parser.add_argument("--mesh", help="comma list of kinds: s,bs,b")
    parser.add_argument("--k", help="degrees, e.g. '0..3' or '1,2'")
    parser.add_argument("--eps", help="comma list of eps values")
    parser.add_argument("--nmin", type=int, help="smallest N (doubling sweep)")
    parser.add_argument("--nmax", type=int, help="largest N")
    parser.add_argument("--sigma", help="'auto' (k+1.5) or an explicit value")
    parser.add_argument("--format", choices=("csv", "markdown"),
                        help="table format (default csv)")
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--plot-dir", help="also write per-curve plot data here")
    parser.add_argument("--workers", type=int, help="parallel row workers")
    parser.add_argument("--quad-assembly", type=int,
                        help="assembly Gauss points (default k+3)")
    parser.add_argument("--quad-error", type=int,
                        help=f"error-norm Gauss points (default {ERROR_QUAD_POINTS})")
    parser.add_argument("--config", help="key=value config file; flags win")
    return parser


def _merge(cli_value, file_values: dict[str, str], key: str, fallback: str) -> str:
    if cli_value is not None:
        return str(cli_value)
    return file_values.get(key, fallback)


def _write(text: str, path: str) -> None:
    """Write text to path, '-' meaning stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _run_study_command(argv: list[str]) -> int:
    args = _study_parser().parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    kinds = _parse_kinds(_merge(args.mesh, file_values, "mesh", "s,bs,b"))
    degrees = _parse_degrees(_merge(args.k, file_values, "k", "0..3"))
    eps_list = _parse_eps(_merge(args.eps, file_values, "eps", "1e-8"))
    nmin = int(_merge(args.nmin, file_values, "nmin", "16"))
    nmax = int(_merge(args.nmax, file_values, "nmax", "512"))
    sigma_text = _merge(args.sigma, file_values, "sigma", "auto")
    sigma_rule: str | float = "k+1.5" if sigma_text == "auto" else float(sigma_text)
    out_format = _merge(args.format, file_values, "format", "csv")
    out_path = _merge(args.out, file_values, "out", "-")
    plot_dir = args.plot_dir or file_values.get("plot-dir")
    workers = int(_merge(args.workers, file_values, "workers", "1"))
    quad_assembly = _merge(args.quad_assembly, file_values, "quad-assembly", "")
    quad_error = int(_merge(args.quad_error, file_values, "quad-error",
                            str(ERROR_QUAD_POINTS)))

    config = StudyConfig(
        mesh_kinds=kinds, degrees=degrees, eps_list=eps_list,
        n_list=_doubling(nmin, nmax), sigma_rule=sigma_rule,
        quad_assembly=int(quad_assembly) if quad_assembly else None,
        quad_error=quad_error, output_format=out_format,
        output_path=None if out_path == "-" else out_path, workers=workers)

    report = run_study(config)
    _write(emit_table(report, config.output_format), config.output_path or "-")
    if plot_dir:
        emit_plotdata(report, plot_dir)
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
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--out", default="-")
    return parser


def _dump_command(name: str, argv: list[str]) -> int:
    """mesh-dump: the mesh nodes; matrix-dump: the assembled matrix (COO)."""
    parser = argparse.ArgumentParser(prog=f"ldg-study {name}",
                                     parents=[_mesh_args()])
    if name == "matrix-dump":
        parser.add_argument("--k", type=int, required=True)
    args = parser.parse_args(argv)
    mesh = build_mesh(MeshSpec(kind=MeshKind.from_tag(args.mesh), N=args.n,
                               eps=args.eps, sigma=args.sigma, alpha=args.alpha))
    if name == "mesh-dump":
        text = mesh.dump_nodes()
    else:
        text = assemble(boundary_layer_case(args.eps).problem, mesh, args.k).dump_coo()
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
