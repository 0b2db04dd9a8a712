import ast
from pathlib import Path

import ldglayer

RETIRED = ("eval_trace", "flux_values", "FluxValues", "error_energy_norm",
           "l2_error", "linf_error_fine")


def test_public_surface():
    """Every exported name resolves, none twice, and the retired one-value
    readers stay retired (``PiecewisePoly.trace_*_all``, ``flux_table`` and
    ``error_record`` read the same values)."""
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
