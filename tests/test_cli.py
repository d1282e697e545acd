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


@pytest.mark.parametrize("name", ["EX-EX 4(3)A", "EX-IM 3(2)A"])
def test_verify_assembles_each_m_once(name, tmp_path, capsys, monkeypatch):
    from mrgark import assembly, order

    assembled, main_reports = [], []

    def counting_assemble(original):
        def wrapper(method, M):
            assembled.append(M)
            return original(method, M)
        return wrapper

    def counting_residuals(original):
        def wrapper(method, M, weights="main", g=None):
            if weights == "main":
                main_reports.append(M)
            return original(method, M, weights, g=g)
        return wrapper

    for module in (cli, order, assembly):
        monkeypatch.setattr(module, "assemble", counting_assemble(module.assemble))
    for module in (cli, order):
        monkeypatch.setattr(module, "residuals", counting_residuals(module.residuals))
    code, _, err = run(["--out-dir", str(tmp_path), "verify", name, "--M-sweep", "1:3"], capsys)
    assert code == 0, err
    assert assembled == main_reports == [1, 2, 3]


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
])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("InvalidInput: ")
    assert not list(tmp_path.glob("*.csv"))


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
