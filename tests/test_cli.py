import csv
import json

import pytest

from mrgark import cli
from mrgark.cli import main
from mrgark.stepping import integrate_fixed


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_methods_prints_twelve_lines(capsys):
    code, out, _ = run(["list-methods"], capsys)
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 12
    assert any("EX-EX 2(1)A" in l for l in lines)


def test_verify_single_method(tmp_path, capsys):
    code, _, err = run(
        ["--out-dir", str(tmp_path), "verify", "EX-EX 2(1)A", "--M-sweep", "1:8"], capsys
    )
    assert code == 0, err
    rows = csv_rows(tmp_path / "residuals.csv")
    assert {r["M"] for r in rows} == {str(m) for m in range(1, 9)}
    assert all(abs(float(r["residual"])) < 1e-9
               for r in rows if int(r["order"]) <= 2)
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert manifest["tool_version"]


def test_verify_all_twelve(tmp_path, capsys):
    code, out, err = run(
        ["--out-dir", str(tmp_path), "verify", "--all", "--M-sweep", "1:4"], capsys
    )
    assert code == 0, err
    assert "12 methods" in out


def refuse_assembly(monkeypatch):
    """Make every ``assemble`` the CLI could reach raise."""
    from mrgark import assembly, order, stability

    def no_assembly(*args, **kwargs):
        raise AssertionError("a tableau was assembled")

    for module in (cli, order, assembly, stability):
        monkeypatch.setattr(module, "assemble", no_assembly, raising=False)


@pytest.mark.parametrize("name", ["EX-EX 4(3)A", "EX-IM 3(2)A"])
def test_verify_never_assembles(name, tmp_path, capsys, monkeypatch):
    from mrgark import order

    main_reports = []

    def counting_residuals(original):
        def wrapper(method, M, weights="main"):
            if weights == "main":
                main_reports.append(M)
            return original(method, M, weights)
        return wrapper

    refuse_assembly(monkeypatch)
    for module in (cli, order):
        monkeypatch.setattr(module, "residuals", counting_residuals(module.residuals))
    code, _, err = run(["--out-dir", str(tmp_path), "verify", name, "--M-sweep", "1:3"], capsys)
    assert code == 0, err
    assert main_reports == [1, 2, 3]


def test_verify_runs_beyond_the_largest_assembled_m(tmp_path, capsys, monkeypatch):
    refuse_assembly(monkeypatch)
    code, _, err = run(["--out-dir", str(tmp_path), "verify", "EX-EX 2(1)A", "--M-sweep", "10001"], capsys)
    assert code == 0, err
    assert {r["M"] for r in csv_rows(tmp_path / "residuals.csv")} == {"10001"}


def test_verify_all_matches_the_assembled_reference(tmp_path, capsys):
    from mrgark import registry_lookup
    from mrgark.order import assembled_residuals

    code, _, err = run(["--out-dir", str(tmp_path), "verify", "--all"], capsys)
    assert code == 0, err
    rows = csv_rows(tmp_path / "residuals.csv")
    assert len(rows) == 12 * 8 * 28
    reference = {}
    for r in rows:
        key = r["method"], int(r["M"])
        if key not in reference:
            reference[key] = assembled_residuals(registry_lookup(key[0]), key[1])
        value = reference[key].entry(r["condition"]).value
        assert abs(float(r["value"]) - value) <= 3e-15 * (1 + abs(value)), (key, r["condition"])


def test_verify_unknown_method_exits_2(tmp_path, capsys):
    code, _, err = run(["--out-dir", str(tmp_path), "verify", "EX-EX 7(7)X"], capsys)
    assert code == 2
    assert "UnknownMethod" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stability"])  # missing method argument
    assert exc.value.code == 2


def test_dump_tableau_json(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "dump-tableau", "EX-EX 2(1)S", "--M", "3"], capsys
    )
    assert code == 0
    payload = json.loads((tmp_path / "tableau.json").read_text())
    assert payload["name"] == "EX-EX 2(1)S"
    assert len(payload["fs_coupling"]) == 3
    assert len(payload["assembled"]["A"]) == 3 * 2 + 2


def test_stability_runs_beyond_the_largest_assembled_m(tmp_path, capsys, monkeypatch):
    # the scan needs only the method and M: no tableau, and no cap from assembly
    refuse_assembly(monkeypatch)
    argv = ["--out-dir", str(tmp_path), "stability", "EX-EX 4(3)A", "--M", "20000", "--n-theta", "3", "--n-rho", "3"]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert len(csv_rows(tmp_path / "region.csv")) == 3 * 3 * 3
    assert json.loads((tmp_path / "stability_manifest.json").read_text())["M"] == 20000


def test_stability_csv_header_and_shape(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "stability", "EX-EX 2(1)S", "--M", "2",
         "--n-theta", "5", "--n-rho", "4", "--rho-max", "2", "--out", "r.csv"],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_f,theta_s,rho,absR"
    assert len(lines) == 1 + 5 * 5 * 4


def test_stability_with_overflowing_rho_max_is_silent(tmp_path, capsys):
    code, _, err = run(
        ["--out-dir", str(tmp_path), "stability", "EX-EX 2(1)A", "--M", "2",
         "--n-theta", "3", "--n-rho", "3", "--rho-max", "1e308", "--out", "r.csv"],
        capsys,
    )
    assert code == 0 and err == ""
    assert {row["absR"] for row in csv_rows(tmp_path / "r.csv")} == {"1", "nan"}


def test_converge_csv(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "converge", "--method", "EX-EX 2(1)A",
         "--M", "2,4", "--h-ladder", "1/8,1/16,1/32,1/64", "--t-end", "1.0"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(tmp_path / "convergence.csv")
    assert len(rows) == 8
    # the finest successive ratio per M is the asymptotic one
    for M in ("2", "4"):
        last = [r for r in rows if r["M"] == M][-1]
        assert 1.6 <= float(last["observed_order"]) <= 2.4


def test_converge_third_order_method(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "converge", "--method", "EX-EX 3(2)3s-A",
         "--M", "2", "--h-ladder", "1/8,1/16,1/32,1/64", "--t-end", "1.0"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(tmp_path / "convergence.csv")
    last = rows[-1]
    assert 2.6 <= float(last["observed_order"]) <= 3.4


def test_converge_single_h_leaves_order_empty(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "converge", "--method", "EX-EX 2(1)A",
         "--M", "2", "--h-ladder", "1/16"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(tmp_path / "convergence.csv")
    assert rows[0]["observed_order"] == ""


def test_integrate_fixed(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "integrate", "--method", "IM-EX 2(1)A",
         "--H", "0.05", "--M", "2", "--t-end", "0.5"],
        capsys,
    )
    assert code == 0
    summary = json.loads((tmp_path / "integrate_manifest.json").read_text())
    assert summary["steps"] == 10
    assert summary["reference_error"] < 1e-3
    rows = csv_rows(tmp_path / "trajectory.csv")
    assert len(rows) == 11


def test_integrate_adaptive_trace(tmp_path, capsys):
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "integrate", "--method", "EX-EX 3(2)4s-A",
         "--adaptive", "efficiency", "--problem", "coupled-scalar",
         "--abstol", "1e-5", "--reltol", "1e-5", "--H", "0.01", "--M", "2",
         "--t-end", "0.5", "--ts-tf-ratio", "20"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(tmp_path / "trace.csv")
    assert rows, "trace must not be empty"
    accepted = [r for r in rows if r["accepted"] == "1"]
    assert all(float(r["eps_total"]) <= 1.0 for r in accepted)


@pytest.mark.parametrize("extra, cost_source, reproducible", [
    (["--ts-tf-ratio", "20"], "synthetic", True),
    ([], "wall-clock", False),
])
def test_integrate_manifest_records_cost_source(extra, cost_source, reproducible, tmp_path, capsys):
    code, _, _ = run(["--out-dir", str(tmp_path), "integrate", "--method", "EX-IM 2(1)A",
                      "--adaptive", "efficiency", "--problem", "coupled-scalar", "--t-end", "0.2"] + extra,
                     capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "integrate_manifest.json").read_text())
    assert manifest["cost_source"] == cost_source
    assert ("bit-for-bit" in manifest["determinism"]) == reproducible


def test_outputs_are_byte_identical(tmp_path, capsys):
    args = ["converge", "--method", "EX-EX 3(2)3s-A", "--M", "2",
            "--h-ladder", "1/8,1/16", "--t-end", "0.5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["--out-dir", str(a)] + args, capsys)[0] == 0
    assert run(["--out-dir", str(b)] + args, capsys)[0] == 0
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MRGARK_OUTPUT_DIR", str(tmp_path / "env"))
    code, _, _ = run(["list-methods"], capsys)
    assert code == 0
    code, _, _ = run(["dump-tableau", "EX-EX 2(1)A", "--M", "1"], capsys)
    assert code == 0
    assert (tmp_path / "env" / "tableau.json").exists()


def test_converge_step_larger_than_span(tmp_path, capsys):
    # H = 3 > t_end rounds to zero steps; the run takes one step instead
    code, _, err = run(
        ["--out-dir", str(tmp_path), "converge", "--method", "EX-EX 2(1)A",
         "--h-ladder", "3,1/8", "--t-end", "1"],
        capsys,
    )
    assert code == 0, err
    rows = csv_rows(tmp_path / "convergence.csv")
    assert len(rows) == 4 and all(r["error"] for r in rows)


# output paths that cannot be created or written: the out-dir is a path below a file, or --out
# names a file in a directory that does not exist
BAD_OUTPUT_ARGV = [
    ["--out-dir", "/dev/null/x", "dump-tableau", "EX-EX 2(1)A"],
    ["verify", "EX-EX 2(1)A", "--M-sweep", "1:2", "--out", "nope/r.csv"],
    ["stability", "EX-EX 2(1)A", "--n-theta", "3", "--n-rho", "3", "--out", "nope/r.csv"],
    ["dump-tableau", "EX-EX 2(1)A", "--out", "nope/r.csv"],
]


@pytest.mark.parametrize("argv", [
    ["stability", "EX-EX 2(1)A", "--M", "0"],
    ["dump-tableau", "EX-EX 2(1)A", "--M", "0"],
    ["verify", "EX-EX 2(1)A", "--M-sweep", "0:2"],
    ["converge", "--method", "EX-EX 2(1)A", "--M", "0", "--h-ladder", "1/8"],
    ["stability", "EX-EX 2(1)A", "--n-theta", "1"],
    ["stability", "EX-EX 2(1)A", "--rho-max", "nan", "--n-theta", "3", "--n-rho", "3"],
    ["stability", "EX-EX 2(1)A", "--rho-max", "-6", "--n-theta", "3", "--n-rho", "3"],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem-params", '{"bogus": 1}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem-params", "{bad"],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem-params", "[1]"],
    ["integrate", "--method", "EX-EX 2(1)A", "--adaptive", "balancing", "--H", "-1"],
    ["integrate", "--method", "EX-EX 2(1)A", "--adaptive", "balancing", "--H", "0"],
    ["converge", "--method", "EX-EX 2(1)A", "--h-ladder", "1/0"],
    ["verify", "EX-EX 2(1)A", "--M-sweep", "x"],
    ["converge", "--method", "EX-EX 2(1)A", "--M", "2,x"],
    ["converge", "--method", "EX-EX 2(1)A", "--h-ladder", "1/8,1/8"],
    ["converge", "--method", "EX-EX 2(1)A", "--h-ladder", ","],
    ["converge", "--method", "EX-EX 2(1)A", "--M", ","],
    ["converge", "--method", "EX-EX 2(1)A", "--problem-params", '"x"'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem", "gray-scott", "--problem-params", '{"n": 0}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem", "gray-scott", "--problem-params", '{"n": -8}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem", "gray-scott", "--problem-params", '{"n": 8.0}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem", "gray-scott", "--problem-params", '{"feed": null}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem", "gray-scott", "--problem-params", '{"swap_roles": "no"}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--problem-params", '{"lambda_fast": "x"}'],
    ["integrate", "--method", "EX-EX 2(1)A", "--abstol", "nan"],
    ["integrate", "--method", "EX-EX 2(1)A", "--abstol", "-1"],
    ["verify"],
    *BAD_OUTPUT_ARGV,
])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2
    prefix = "OSError: " if argv in BAD_OUTPUT_ARGV else "InvalidInput: "
    assert len(err.strip().splitlines()) == 1 and err.startswith(prefix)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["verify", "EX-EX 2(1)A", "--M-sweep", "2,2"],
    ["verify", "EX-EX 2(1)A", "--M-sweep", "2,0"],
    ["converge", "--method", "EX-EX 2(1)A", "--M", "2,2", "--h-ladder", "1/8"],
    ["converge", "--method", "EX-EX 2(1)A", "--M", "2,0", "--h-ladder", "1/8"],
    # a bad M is reported before an unwritable output file
    ["converge", "--method", "EX-EX 2(1)A", "--M", "2,2", "--out", "nope/r.csv"],
    ["verify", "EX-EX 2(1)A", "--M-sweep", "2,2", "--out", "nope/r.csv"],
    ["stability", "EX-EX 2(1)A", "--M", "0", "--out", "nope/r.csv"],
])
def test_m_lists_are_checked_before_any_work(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the M list was checked")

    for name in ("assemble", "scan_region", "_verify_one", "integrate_fixed"):
        monkeypatch.setattr(cli, name, no_work)
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2 and err.startswith("InvalidInput: ")


@pytest.mark.parametrize("argv", [
    ["stability", "EX-EX 4(3)A", "--out", "nope/r.csv"],
    ["verify", "--all", "--out", "nope/r.csv"],
    ["converge", "--method", "EX-EX 2(1)A", "--out", "nope/r.csv"],
    ["--out-dir", "/dev/null/x", "stability", "EX-EX 4(3)A"],
    ["--out-dir", "/dev/null/x", "integrate", "--method", "EX-EX 2(1)A"],
    ["stability", "EX-EX 4(3)A", "--out", "."],
    ["--out-dir", "sub", "dump-tableau", "EX-EX 2(1)A", "--out", "nope/t.json"],  # relative to tmp_path
])
def test_unwritable_output_is_reported_before_any_work(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    monkeypatch.chdir(tmp_path)
    for name in ("assemble", "scan_region", "_verify_one", "integrate_fixed", "drive"):
        monkeypatch.setattr(cli, name, no_work)
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2 and err.startswith("OSError: ") and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())  # nothing created or truncated


@pytest.mark.parametrize("argv, blocked", [
    (["verify", "EX-EX 2(1)A"], "verify_manifest.json"),
    (["converge", "--method", "EX-EX 2(1)A"], "converge_manifest.json"),
    (["stability", "EX-EX 2(1)A", "--n-theta", "3", "--n-rho", "3"], "stability_manifest.json"),
    (["integrate", "--method", "EX-EX 2(1)A", "--adaptive", "balancing", "--t-end", "0.1"], "trace.csv"),
    (["integrate", "--method", "EX-EX 2(1)A"], "integrate_manifest.json"),
])
def test_every_output_file_is_checked_before_any_work(argv, blocked, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before every output file was checked")

    for name in ("assemble", "scan_region", "_verify_one", "integrate_fixed", "drive"):
        monkeypatch.setattr(cli, name, no_work)
    (tmp_path / blocked).mkdir()
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2 and err.startswith("OSError: ") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == [tmp_path / blocked] and not list((tmp_path / blocked).iterdir())


def test_fixed_step_integrate_does_not_check_a_trace_file(tmp_path, capsys):
    (tmp_path / "trace.csv").mkdir()  # only --adaptive writes the trace
    code, _, err = run(["--out-dir", str(tmp_path), "integrate", "--method", "EX-EX 2(1)A", "--t-end", "0.1"], capsys)
    assert code == 0, err
    assert (tmp_path / "trajectory.csv").is_file()


@pytest.mark.parametrize("out, written", [
    ("region.csv", "a/b/region.csv"),
    ("../r.csv", "a/r.csv"),  # ".." below the missing output directory, which is made first
    ("../../r.csv", "r.csv"),
])
def test_missing_output_dirs_are_still_created(out, written, tmp_path, capsys):
    argv = ["--out-dir", str(tmp_path / "a" / "b"), "stability", "EX-EX 2(1)A", "--n-theta", "3", "--n-rho", "3"]
    code, _, err = run(argv + ["--out", out], capsys)
    assert code == 0, err
    assert (tmp_path / written).is_file()


@pytest.mark.parametrize("argv", [
    ["converge", "--method", "EX-EX 2(1)A", "--M", "2,2"],
    ["converge", "--method", "EX-EX 2(1)A", "--M", "0", "--h-ladder", "1/8"],
    ["integrate", "--method", "EX-EX 2(1)A", "--M", "0"],
    ["integrate", "--method", "EX-EX 2(1)A", "--abstol", "-1"],
    ["integrate", "--method", "EX-EX 2(1)A", "--adaptive", "balancing", "--H", "-1"],
])
def test_rejected_arguments_leave_no_output_dir(argv, tmp_path, capsys):
    out = tmp_path / "d"
    code, _, err = run(["--out-dir", str(out)] + argv, capsys)
    assert code == 2 and err.startswith("InvalidInput: ")
    assert not out.exists()


def test_adaptive_strategies_have_one_spelling_each(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "integrate", "--method", "EX-EX 2(1)A", "--adaptive", "classic"])
    assert exc.value.code == 2
    code, _, err = run(["--out-dir", str(tmp_path), "integrate", "--method", "EX-EX 2(1)A", "--adaptive", "classic-h",
                        "--t-end", "0.1"], capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "integrate_manifest.json").read_text())["strategy"] == "classic-h"


@pytest.mark.parametrize("argv, choices", [
    (["integrate", "--method", "EX-EX 2(1)A", "--adaptive", "x"], ("balancing", "efficiency", "classic-h")),
    (["verify", "--all", "--weights", "x"], ("main", "embedded", "mixed-slow-hat", "mixed-fast-hat")),
])
def test_bad_choice_lists_the_library_choices_in_order(argv, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    positions = [err.index(choice) for choice in choices]
    assert positions == sorted(positions), err


def test_converge_runs_the_reference_once_per_M(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[5])  # H
        return integrate_fixed(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_fixed", counted)
    ladder = ["1/8", "1/16", "1/32"]
    code, _, err = run(["--out-dir", str(tmp_path), "converge", "--method", "EX-EX 2(1)A",
                        "--problem", "coupled-scalar", "--M", "2,3", "--h-ladder", ",".join(ladder),
                        "--t-end", "0.25"], capsys)
    assert code == 0, err
    assert len(calls) == 2 * (len(ladder) + 1)
    assert calls.count(1 / 32 / 64) == 2  # one reference run per M


def test_in_process_calls_are_independent(tmp_path, capsys, monkeypatch):
    # one parser serves every call; nothing one call parses carries into the next
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("MRGARK_OUTPUT_DIR", str(tmp_path / "env"))
    first = ["stability", "EX-EX 2(1)A", "--M", "3", "--n-theta", "3", "--n-rho", "4", "--out", "a.csv"]
    assert run(["--out-dir", str(tmp_path / "a")] + first, capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["stability", "EX-EX 2(1)A", "--M", "x"])
    assert exc.value.code == 2
    assert run(["stability", "EX-EX 2(1)A"], capsys)[0] == 0
    assert run(["--out-dir", str(tmp_path / "b")] + first, capsys)[0] == 0

    manifest = json.loads((tmp_path / "env" / "stability_manifest.json").read_text())
    assert (manifest["M"], manifest["n_theta"], manifest["n_rho"]) == (2, 65, 129)
    assert len(csv_rows(tmp_path / "env" / "region.csv")) == 65 * 65 * 129
    assert sorted(p.name for p in (tmp_path / "env").iterdir()) == ["region.csv", "stability_manifest.json"]
    for file in ("a.csv", "stability_manifest.json"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert json.loads((tmp_path / "a" / "stability_manifest.json").read_text())["M"] == 3
