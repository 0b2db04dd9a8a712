import ast
import dataclasses
import inspect
from pathlib import Path

import ldglayer
import ldglayer.study

RETIRED = ("eval_trace", "flux_values", "FluxValues", "error_energy_norm",
           "l2_error", "linf_error_fine",
           "ProjectionErrors", "ProjectionSign", "auxiliary_identity_residuals",
           "bilinear_form", "energy_norm", "fit_rate", "polynomial_case",
           "project_gauss_radau", "projection_error_suite")
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def test_public_surface():
    """Every exported name resolves, none twice, and the retired names stay
    retired: the one-value readers (``PiecewisePoly.trace_*_all`` and
    ``error_record`` read the same values) and the verification oracles,
    which live in ``tests/oracles.py``."""
    for name in ldglayer.__all__:
        getattr(ldglayer, name)
    assert len(set(ldglayer.__all__)) == len(ldglayer.__all__)
    for name in RETIRED:
        assert name not in ldglayer.__all__
        assert not hasattr(ldglayer, name)


def test_no_private_numpy_or_scipy_import():
    """No module of the package imports a numpy or scipy module through a
    ``_``-prefixed path component: a release may move such a module, and
    ``import ldglayer`` would then fail."""
    private = []
    for path in sorted(Path(ldglayer.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] in ("numpy", "scipy") and any(p.startswith("_") for p in parts):
                    private.append(f"{path.name}:{node.lineno}: {name}")
    assert not private, private


def _definitions(tree: ast.Module):
    """(name, line) of the module's top-level functions, classes and
    assigned names and of its classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def _read(*paths: Path) -> set:
    """The names the files read, as a name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_no_dead_private_helper():
    """Every ``_``-prefixed module-level name and private method of the
    package is read somewhere in the package (as a name or an attribute),
    so a helper whose last caller went does not linger; dunder names are
    not private helpers."""
    paths = sorted(Path(ldglayer.__file__).parent.rglob("*.py"))
    read = _read(*paths)
    dead = [f"{path.name}:{line}: {name}" for path in paths
            for name, line in _definitions(ast.parse(path.read_text(), str(path)))
            if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not dead, dead


def test_every_oracle_has_a_reader():
    """Every top-level definition of ``tests/oracles.py`` is read by some
    ``tests/test_*.py`` file, or, if ``_``-prefixed, by the oracles
    themselves, so no dead oracle code lingers."""
    oracles = TESTS / "oracles.py"
    by_tests, by_oracles = _read(*sorted(TESTS.glob("test_*.py"))), _read(oracles)
    dead = [f"oracles.py:{line}: {name}"
            for name, line in _definitions(ast.parse(oracles.read_text(), str(oracles)))
            if name not in (by_oracles if name.startswith("_") else by_tests)]
    assert not dead, dead


def _assigned_literal(path: Path, name: str):
    """The literal a module assigns to ``name`` at top level, read without
    importing the module."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_benchmark_reads_resolve():
    """What the benchmark reads from the library is there: the per-row
    calls its tracer swaps in ``ldglayer.study``, the ``max_refine``
    default of ``solve``, the ``quad`` and ``w`` arguments of
    ``error_record`` and the ``SolveInfo`` fields it records."""
    row_calls = _assigned_literal(PERFBENCH / "tracing.py", "ROW_CALLS")
    assert row_calls
    for name in row_calls:
        assert callable(getattr(ldglayer.study, name, None)), name
    max_refine = inspect.signature(ldglayer.solve).parameters["max_refine"].default
    assert type(max_refine) is int
    assert {"quad", "w"} <= inspect.signature(ldglayer.error_record).parameters.keys()
    fields = {f.name for f in dataclasses.fields(ldglayer.solver.SolveInfo)}
    assert {"refine_steps", "residual_inf", "rhs_inf", "growth_factor"} <= fields
