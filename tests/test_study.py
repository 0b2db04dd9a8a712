import hashlib
from pathlib import Path

import pytest

import ldglayer.cli as cli
import ldglayer.study as study
from ldglayer.cli import main as cli_main
from ldglayer.errors import rate_r2
from ldglayer.meshes import MeshKind
from ldglayer.study import (CSV_HEADER, ConvergenceReport, StudyConfig,
                            StudyRow, emit_plotdata, emit_table, run_study)

from oracles import fit_rate

SMALL = StudyConfig(mesh_kinds=(MeshKind.SHISHKIN,), degrees=(1,),
                    eps_list=(1e-4,), n_list=(16, 32, 64))


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(n_list=(16, 48))        # not doubling
    with pytest.raises(ValueError):
        StudyConfig(n_list=(15, 30))        # odd
    with pytest.raises(ValueError):
        StudyConfig(n_list=(2, 4))          # below the minimum size
    with pytest.raises(ValueError):
        StudyConfig(degrees=(4,))
    with pytest.raises(ValueError):
        StudyConfig(sigma_rule="k+2")
    for eps in (2.0, 1.0, 0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError):
            StudyConfig(eps_list=(1e-4, eps))
    for sigma in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            StudyConfig(sigma_rule=sigma)
    for repeated in ({"mesh_kinds": (MeshKind.SHISHKIN,) * 2}, {"degrees": (1, 2, 1)},
                     {"eps_list": (1e-4, 1e-8, 1e-4)}, {"eps_list": (1e-8, 1.0000001e-8)}):
        with pytest.raises(ValueError):
            StudyConfig(**repeated)
    assert StudyConfig(sigma_rule=3.0).sigma_for(1) == 3.0
    assert StudyConfig().sigma_for(2) == 3.5


def test_empty_n_list_gives_empty_report():
    report = run_study(StudyConfig(n_list=()))
    assert report.rows == ()
    assert not report.any_failed
    assert emit_table(report, "csv") == CSV_HEADER + "\n"


def test_csv_header_and_shape():
    report = run_study(SMALL)
    text = emit_table(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ("mesh,k,epsilon,N,energy_error,energy_rate_r2,"
                        "energy_rate_rs,l2u_error,l2u_rate,l2p_error,l2p_rate")
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "s" and first[1] == "1" and first[3] == "16"
    # first row of a sweep has blank rates
    assert first[5] == "" and first[6] == ""
    # subsequent rows populate r2 and (Shishkin) rs
    second = lines[2].split(",")
    assert second[5] != "" and second[6] != ""


def test_error_and_rate_formatting():
    row = StudyRow(kind=MeshKind.SHISHKIN, k=1, eps=1e-4, n=32,
                   energy=3.0123e-3, rate_r2=1.9514, rate_rs=2.3456,
                   l2u=1.0e-5, l2u_rate=None, l2p=2.0e-5, l2p_rate=None)
    report = ConvergenceReport(rows=(row,))
    line = emit_table(report, "csv").strip().split("\n")[1]
    cells = line.split(",")
    assert cells[4] == "3.01e-03"
    assert cells[5] == "1.95"
    assert cells[6] == "2.35"
    assert cells[8] == ""


def test_rs_only_for_shishkin():
    config = StudyConfig(mesh_kinds=(MeshKind.BAKHVALOV,), degrees=(1,),
                         eps_list=(1e-4,), n_list=(16, 32))
    report = run_study(config)
    assert report.rows[1].rate_r2 is not None
    assert report.rows[1].rate_rs is None


def test_determinism_byte_identical():
    a = emit_table(run_study(SMALL), "csv")
    b = emit_table(run_study(SMALL), "csv")
    assert a == b


def test_acceptance_table_matches_reference_bytes():
    """The 144-row acceptance sweep reproduces the benchmark's reference
    CSV byte for byte, so any drift in the discrete operator shows here."""
    reference = (Path(__file__).resolve().parent.parent / "perfbench"
                 / "reference" / "acceptance.csv")
    report = run_study(StudyConfig(eps_list=(1e-8, 1e-12), workers=1))
    assert emit_table(report, "csv") == reference.read_text()


def test_rate_column_consistency():
    """Recomputing r2 from the emitted error column reproduces the emitted
    rate column to the printed precision (double rounding allows 0.011)."""
    report = run_study(SMALL)
    lines = emit_table(report, "csv").strip().split("\n")[1:]
    errs = [float(line.split(",")[4]) for line in lines]
    rates = [line.split(",")[5] for line in lines]
    for i in range(1, len(errs)):
        recomputed = rate_r2(errs[i - 1], errs[i])
        assert abs(recomputed - float(rates[i])) <= 0.011


def test_markdown_layout():
    text = emit_table(run_study(SMALL), "markdown")
    assert "## epsilon = 0.0001" in text
    assert "### degree k = 1" in text
    assert "| N | s error | s rs |" in text


def test_failed_rows_marked_err(monkeypatch):
    orig = study._run_single

    def boom(kind, k, eps, n, sigma):
        if n == 32:
            raise RuntimeError("synthetic failure")
        return orig(kind, k, eps, n, sigma)

    monkeypatch.setattr(study, "_run_single", boom)
    report = run_study(SMALL)
    assert report.any_failed
    failed = [r for r in report.rows if r.failed]
    assert len(failed) == 1 and failed[0].n == 32
    assert "synthetic failure" in failed[0].failure
    text = emit_table(report, "csv")
    assert ",ERR," in text
    # the N=64 row survives but has no rate (its predecessor failed)
    last = text.strip().split("\n")[-1].split(",")
    assert last[3] == "64" and last[4] != "ERR" and last[5] == ""


def test_plotdata_files(tmp_path):
    config = StudyConfig(mesh_kinds=(MeshKind.SHISHKIN,), degrees=(1,),
                         eps_list=(1e-8,), n_list=(32, 64, 128, 256))
    report = run_study(config)
    paths = emit_plotdata(report, tmp_path)
    assert len(paths) == 1
    lines = Path(paths[0]).read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 4
    ns, errs, refs = zip(*(map(float, line.split()) for line in lines[1:]))
    # reference column normalised to the first measured point
    assert refs[0] == pytest.approx(errs[0], rel=1e-12, abs=0)
    # measured and reference slopes agree within 0.15 for k = 1
    assert abs(fit_rate(ns, errs) - fit_rate(ns, refs)) <= 0.15


def test_plotdata_keeps_eps_values_apart(tmp_path):
    """Two eps that agree to one significant digit get their own files,
    named with the CSV's eps label."""
    config = StudyConfig(mesh_kinds=(MeshKind.SHISHKIN,), degrees=(1,),
                         eps_list=(1e-8, 1.4e-8), n_list=(16, 32))
    paths = emit_plotdata(run_study(config), tmp_path)
    assert len(set(paths)) == 2
    assert sorted(Path(p).name for p in paths) == ["energy_s_k1_eps1.4e-08.dat",
                                                   "energy_s_k1_eps1e-08.dat"]


def test_three_kind_agreement():
    config = StudyConfig(degrees=(0, 1), eps_list=(1e-8,), n_list=(16, 32, 64))
    report = run_study(config)
    by_key = {(r.kind, r.k, r.n): r.energy for r in report.rows}
    for k in (0, 1):
        for n in (16, 32, 64):
            vals = [by_key[(kind, k, n)] for kind in MeshKind]
            spread = (max(vals) - min(vals)) / min(vals)
            assert spread <= 0.03


def test_parallel_workers_match_serial():
    serial = emit_table(run_study(SMALL), "csv")
    parallel = emit_table(run_study(
        StudyConfig(mesh_kinds=SMALL.mesh_kinds, degrees=SMALL.degrees,
                    eps_list=SMALL.eps_list, n_list=SMALL.n_list, workers=2)),
        "csv")
    assert serial == parallel


def test_pool_never_outnumbers_the_rows(monkeypatch):
    """A 2-row sweep with 5000 workers asks for a pool of 2; a stub
    executor records the request and runs the rows in-process, so no pool
    is started."""
    requested = []

    class Recorder:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(study, "ProcessPoolExecutor", Recorder)
    report = run_study(StudyConfig(mesh_kinds=(MeshKind.SHISHKIN,), degrees=(1,),
                                   eps_list=(1e-4,), n_list=(16, 32), workers=5000))
    assert requested == [2]
    assert len(report.rows) == 2 and not report.any_failed


# -- CLI ---------------------------------------------------------------------

def test_cli_study_writes_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = cli_main(["--mesh", "s", "--k", "1", "--eps", "1e-4",
                     "--nmin", "16", "--nmax", "32", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_cli_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("mesh=s\nk=1\neps=1e-4\nnmin=16\nnmax=64\n# comment\n")
    out = tmp_path / "t.csv"
    # the flag overrides nmax from the file
    code = cli_main(["--config", str(cfg), "--nmax", "32", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3  # header + N=16,32


def test_cli_range_degree_syntax(tmp_path):
    out = tmp_path / "t.csv"
    code = cli_main(["--mesh", "bs", "--k", "0..1", "--eps", "1e-4",
                     "--nmin", "16", "--nmax", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3  # k = 0 and k = 1


def test_cli_bad_input_exit_code(tmp_path, monkeypatch):
    """Bad input exits 2 before any row runs."""
    monkeypatch.setattr(cli, "run_study", lambda config: pytest.fail("ran"))
    assert cli_main(["--mesh", "zz"]) == 2
    assert cli_main(["--nmin", "32", "--nmax", "16"]) == 2
    # doubling from N <= 0 would never reach nmax
    assert cli_main(["--nmin", "0", "--nmax", "16"]) == 2
    assert cli_main(["--nmin", "-16", "--nmax", "16"]) == 2
    assert cli_main(["--k", "3..1"]) == 2
    for eps in ("2", "0"):
        assert cli_main(["--eps", eps]) == 2
    for sigma in ("-1", "0", "nan", "inf"):
        assert cli_main(["--sigma", sigma]) == 2
    # an --out in a missing directory is refused before the rows, not after
    assert cli_main(["--mesh", "s", "--k", "1", "--out", str(tmp_path / "no_dir" / "t.csv")]) == 2
    # so are an --out naming a directory, a --plot-dir naming a file or
    # lying under one, a repeated mesh kind, degree or eps, and two eps
    # whose printed labels coincide
    a_file = tmp_path / "file.txt"
    a_file.write_text("")
    for argv in (["--out", str(tmp_path)], ["--plot-dir", str(a_file)],
                 ["--plot-dir", str(a_file / "plots")], ["--mesh", "s,s", "--k", "0,0"],
                 ["--mesh", "s,b,s"], ["--k", "1,1"], ["--eps", "1e-4,1e-04"],
                 ["--eps", "1e-8,1.0000001e-8"]):
        assert cli_main(["--mesh", "s", "--k", "1", *argv]) == 2
    mesh_args = ["--mesh", "b", "--n", "8", "--eps", "1e-4"]
    for sigma in ("nan", "inf"):
        assert cli_main(["mesh-dump", *mesh_args, "--sigma", sigma]) == 2
        assert cli_main(["matrix-dump", *mesh_args, "--k", "1", "--sigma", sigma]) == 2
    # removed keys and formats argparse cannot check are refused in a file
    for line in ("quad-error=20", "format=tsv"):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"mesh=s\nk=1\n{line}\n")
        assert cli_main(["--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["--quad-error", "20"],
    ["--quad-assembly", "4"],
    ["mesh-dump", "--mesh", "s", "--n", "16", "--eps", "1e-4", "--sigma",
     "2.5", "--alpha", "1"],
    ["matrix-dump", "--mesh", "s", "--n", "8", "--eps", "1e-4", "--sigma",
     "2.5", "--k", "1", "--alpha", "1"],
])
def test_cli_removed_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2


def test_study_flags_match_config_keys():
    """The config file takes the same keys as the study's long flags."""
    flags = {opt for action in cli._study_parser()._actions
             for opt in action.option_strings if opt.startswith("--")}
    assert flags - {"--help", "--config"} == {f"--{key}" for key in cli._STUDY_KEYS}


def test_cli_plot_dir(tmp_path):
    out = tmp_path / "t.csv"
    plots = tmp_path / "plots"
    code = cli_main(["--mesh", "s", "--k", "1", "--eps", "1e-4", "--nmin",
                     "16", "--nmax", "32", "--out", str(out),
                     "--plot-dir", str(plots)])
    assert code == 0
    files = list(plots.glob("*.dat"))
    assert len(files) == 1


def test_cli_mesh_dump(tmp_path, capsys):
    code = cli_main(["mesh-dump", "--mesh", "s", "--n", "16", "--eps", "1e-4",
                     "--sigma", "2.5"])
    assert code == 0
    out = capsys.readouterr().out
    values = [float(line) for line in out.strip().split("\n")]
    assert len(values) == 17
    assert values[0] == 0.0 and values[-1] == 1.0


@pytest.mark.parametrize("k, digest", [
    (0, "2a613a070e215ce3d1ed840f653469a5f807a67e24db20b36ee32c146556cb0b"),
    (2, "7e37a7c52a0498c6f342411fa5f7968990064d6c4d3247d4456a8416cf7e9abb"),
    (3, "11b96deac7bfceb37bcf522ed690c2f296454ac225754f26453bb303deaecae4"),
])
def test_cli_matrix_dump_bytes(k, digest, capsys):
    """matrix-dump emits A's stored entries, explicit zeros included, in
    column-major order; the digests pin its bytes."""
    code = cli_main(["matrix-dump", "--mesh", "b", "--n", "8", "--eps", "1e-8",
                     "--sigma", "2.5", "--k", str(k), "--out", "-"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_matrix_dump(tmp_path, capsys):
    code = cli_main(["matrix-dump", "--mesh", "s", "--n", "4", "--eps", "1e-2",
                     "--sigma", "2.5", "--k", "0"])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.strip().split("\n"):
        r, c, v = line.split()
        int(r), int(c), float(v)
