"""Short self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. Runs every workload in --short mode with --trace 0 and 1 and checks the
   last output line: exactly the result keys, correct with no failed row,
   and every metric BENCHMARK.json names, with its unit.
2. Negative control: the row checks must pass the reference itself and
   flag deliberately perturbed copies of it.
3. A directory holding only BENCHMARK.json and the benchmark (no sources)
   must make the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import checks
import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_emitted(problems: list[str]) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace),
                    "--short"]
            done = subprocess.run(argv, cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=300)
            where = f"{name} --trace {trace}"
            if done.returncode != 0 or not done.stdout.strip():
                problems.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} rows failed")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{where}: {k} = {v['value']!r}")
            print(f"ok   {where}: {len(got)} metrics, "
                  f"{result['attempted']} rows checked")


def perturb_csv(text: str, row: int) -> str:
    """Change the leading digit of one row's energy error."""
    lines = text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[4] = ("2" if cells[4][0] != "2" else "3") + cells[4][1:]
    lines[row] = ",".join(cells)
    return "".join(lines)


def check_negative_control(problems: list[str]) -> None:
    def expect(label: str, got: int, want: int) -> None:
        status = "ok  " if got == want else "FAIL"
        print(f"{status} negative control {label}: {got} failed rows (want {want})")
        if got != want:
            problems.append(f"negative control {label}: {got} != {want}")

    for name in ("acceptance.csv", "cli-moderate.csv"):
        ref = checks.load_reference(name)
        expect(f"{name} as is", checks.csv_failures(ref, ref), 0)
        expect(f"{name} one digit changed",
               checks.csv_failures(perturb_csv(ref, 10), ref), 1)
        expect(f"{name} one row dropped",
               checks.csv_failures("".join(ref.splitlines(True)[:-1]), ref), 1)

    lib = run.import_ldglayer()
    ref = checks.load_reference("scale.json")
    rows = [lib.StudyRow(kind=lib.MeshKind.from_tag(r["mesh"]), k=r["k"],
                         eps=r["eps"], n=r["N"], energy=r["energy"],
                         rate_r2=r["rate_r2"], l2u=r["l2u"],
                         l2u_rate=r["l2u_rate"], l2p=r["l2p"],
                         l2p_rate=r["l2p_rate"]) for r in ref["rows"]]
    above = next(i for i, r in enumerate(ref["rows"]) if "rtol" in r["tolerance"]["energy"])
    floor = next(i for i, r in enumerate(ref["rows"]) if "max" in r["tolerance"]["energy"])
    cases = {
        "scale as is": rows,
        "scale energy +1e-4 relative": _swap(rows, above, energy=rows[above].energy * (1 + 1e-4)),
        "scale floor row above its bound": _swap(rows, floor, energy=2e-12),
        "scale row failed": _swap(rows, floor, energy=None, failure="RuntimeError: x"),
    }
    for label, case in cases.items():
        expect(label, checks.scale_failures(case, ref), 0 if case is rows else 1)


def _swap(rows, i, **changes):
    return rows[:i] + [replace(rows[i], **changes)] + rows[i + 1:]


def check_bare_directory(problems: list[str]) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "acceptance",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed = any(line.startswith("{") for line in done.stdout.splitlines())
    ok = done.returncode != 0 and not printed
    print(f"{'ok  ' if ok else 'FAIL'} without sources: exit {done.returncode}, "
          f"result printed: {printed}")
    if not ok:
        problems.append("benchmark did not fail in a directory without sources")


def main() -> int:
    problems: list[str] = []
    check_negative_control(problems)
    check_bare_directory(problems)
    check_emitted(problems)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
