"""In-memory spans around the public calls into each ldglayer module.

The benchmark records spans from its own code only: ``Tracer.patched``
swaps the public functions that ``ldglayer.study`` calls per row (case,
mesh, assemble, solve, error_record) for wrappers that open a span, so a
traced ``run_study`` call yields one child span per layer call.  The
benchmark opens the enclosing spans (row, run_study, emit_table, cli.main)
itself.  Spans stay in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass

# Public functions that ldglayer.study calls once per row, by the name the
# study module imports them under, with the span name each one records.
ROW_CALLS = {
    "boundary_layer_case": "case",
    "build_mesh": "mesh",
    "assemble": "assemble",
    "solve": "solve",
    "error_record": "error_record",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    row: str | None
    fields: dict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.row: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, **fields):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                  self.row, fields)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            sp.fields.update(_counts(name, sig.bind(*args, **kwargs), out))
            return out
        return traced

    @contextlib.contextmanager
    def patched(self, study_module):
        """Trace the per-row calls ``study_module`` makes while inside."""
        originals = {attr: getattr(study_module, attr) for attr in ROW_CALLS}
        try:
            for attr, name in ROW_CALLS.items():
                setattr(study_module, attr, self._wrap(originals[attr], name))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(study_module, attr, fn)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    @staticmethod
    def self_time(sp: Span, children: list[Span]) -> float:
        """Span duration minus the part of it its direct children cover."""
        covered, reach = 0.0, sp.start
        for child in sorted(children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (sp.end - sp.start) - covered

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def _counts(name: str, bound: inspect.BoundArguments, out) -> dict:
    """Work counts and diagnostics read from a call's public values."""
    args = bound.arguments
    if name == "assemble":
        return {"nnz": int(out.matrix.nnz), "dof": int(out.rhs.size)}
    if name == "solve":
        info = out.info
        return {"refine_steps": info.refine_steps,
                "residual_inf": info.residual_inf, "rhs_inf": info.rhs_inf,
                "growth_factor": info.growth_factor}
    if name == "error_record":
        return {"quad_points": args["quad"].n * args["w"].U.mesh.n_elements,
                "energy": out.energy, "part_p_jump": out.part_p_jump,
                "part_p_l2": out.part_p_l2, "part_u_l2": out.part_u_l2,
                "part_u_jump": out.part_u_jump}
    return {}
