import json
import pathlib
import shlex

import numpy as np
import pytest

import normlab as nl
from normlab import cli
from normlab.repro import CheckRecord, ReproReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_opnorm_matrix_string(capsys):
    code, out, _ = run_cli(
        capsys, "opnorm", "--p", "2", "--q", "inf", "--matrix", "0.5,0;0,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(1.0, abs=1e-8)
    tops = sorted(round(w[1]) for w in data["witnesses"])
    assert tops == [-1, 1]
    assert data["certified"] is True


def test_opnorm_gallery_tag(capsys):
    code, out, _ = run_cli(capsys, "opnorm", "--tag", "ROT-2-1", "--beta", "0.7")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-8)


def test_opnorm_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[0.5, 0.0], [0.0, 1.0]]))
    code, out, _ = run_cli(capsys, "opnorm", "--matrix-file", str(path))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-8)


def test_na_command(capsys):
    code, out, _ = run_cli(capsys, "na", "--tag", "DIAG-2-INF", "--beta", "0.5")
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 2


def test_eta_csv(capsys):
    code, out, _ = run_cli(
        capsys, "eta", "--tag", "LPLQ-FAIL-N", "--blocks", "3", "--p", "2", "--q", "2",
        "--eps", "0.9", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,rho,eta"
    eps, rho, eta = (float(v) for v in lines[1].split(","))
    assert eps == 0.9
    assert eta <= 1 / 6 + 1e-3


def test_delta_csv(capsys):
    code, out, _ = run_cli(capsys, "delta", "--p", "1", "--eps", "2.0", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,delta"
    assert float(lines[1].split(",")[1]) <= 1e-6


def test_auerbach_command(capsys):
    code, out, _ = run_cli(capsys, "auerbach", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert np.allclose(data["vectors"], np.eye(2))


def test_gallery_lists_all_tags(capsys):
    code, out, _ = run_cli(capsys, "gallery")
    assert code == 0
    data = json.loads(out)
    from normlab import GALLERY_TAGS

    assert set(data) == set(GALLERY_TAGS)
    for info in data.values():
        assert "params" in info and "claim" in info


def test_repro_success_exit_zero(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "repro", "--tag", "DIAG-P-Q", "--p", "1.5", "--q", "3", "--beta", "0.5",
        "--write-reports", "--report-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    by_name = {c["name"]: c for c in data[0]["checks"]}
    assert by_name["dist_e1_to_attainment"]["computed"] == pytest.approx(
        2 ** (1 / 1.5), abs=1e-4
    )
    assert (tmp_path / "DIAG-P-Q.json").exists()
    assert (tmp_path / "index.csv").exists()


def test_repro_hypothesis_violation_exit_two(capsys):
    code, _, err = run_cli(capsys, "repro", "--tag", "ROT-2-Q", "--q", "2", "--beta", "1.0")
    assert code == 2
    assert "q" in err and err.strip().startswith("error:")


def test_repro_check_failure_exit_one(capsys, monkeypatch):
    failing = ReproReport(
        tag="DIAG-2-2",
        params={"beta": 0.5},
        checks=[CheckRecord("operator_norm_is_one", 1.0, 0.5, 1e-6, False)],
        overall=False,
        runtime_ms=1,
        seed=0,
    )
    monkeypatch.setattr(cli.repro_mod, "reproduce", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "repro", "--tag", "DIAG-2-2")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "opnorm", "--p", "2", "--q", "2")
    assert code == 2  # neither --matrix nor --matrix-file
    code, _, err = run_cli(capsys, "opnorm", "--matrix", "1,0;0,1", "--p", "0.5")
    assert code == 2  # invalid exponent
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--tag", "DIAG-2-2"], ["--p", "2"], ["--q", "3"], ["--beta", "0.3"], ["--dim", "3"],
                                  ["--blocks", "5"]])
def test_repro_all_refuses_a_tag_and_gallery_parameters(capsys, monkeypatch, argv):
    """`repro --all` runs the default bundle, so a tag or gallery parameter
    it would ignore is a usage error, refused before any report runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("run_all ran")

    monkeypatch.setattr(cli.repro_mod, "run_all", refuse)
    code, out, err = run_cli(capsys, "repro", "--all", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--all" in err


@pytest.mark.parametrize("command", ["opnorm", "na", "eta"])
@pytest.mark.parametrize("matrix", [["--matrix", "5,0;0,5"], ["--matrix-file", "m.json"]])
def test_a_tag_refuses_a_matrix(capsys, command, matrix):
    """A gallery tag names the operator, so a matrix given with it is a usage
    error, as two matrix options are, not silently ignored."""
    code, out, err = run_cli(capsys, command, "--tag", "DIAG-2-2", *matrix)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--tag" in err


@pytest.mark.parametrize("argv", [["--all"], ["--tag", "DIAG-2-2"]])
def test_repro_has_no_tol_option(capsys, argv):
    """The gallery's tolerances are pinned, so repro takes no --tol."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", *argv, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv, defaults", [
    (["opnorm", "--tag", "DIAG-2-2"], ["--beta", "0.5"]),
    (["na", "--tag", "DIAG-P-Q", "--beta", "0.5"], ["--p", "1.5", "--q", "3"]),
    (["eta", "--tag", "DIAG-P-Q", "--beta", "0.5", "--eps", "0.5"], ["--p", "1.5", "--q", "3"]),
])
def test_missing_gallery_parameters_take_the_defaults(capsys, argv, defaults):
    """A gallery parameter left out takes its default, as in `repro --tag`."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, *defaults)[1]


def test_seed_determinism_bytes(capsys):
    args = ["eta", "--tag", "DIAG-2-2", "--beta", "0.9", "--eps", "1.0", "--seed", "4"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("command", ["na", "eta"])
def test_grid_option_reaches_the_analysis(capsys, command):
    """`--grid` reaches na and eta as it reaches opnorm: the output is the library call's at that grid."""
    M = np.array([[0.3, 0.9], [0.7, -0.2]])
    T = nl.OperatorPQ(M, nl.SequenceSpace(2, 1.5), nl.SequenceSpace(2, 3.0))
    argv = [command, "--matrix", "0.3,0.9;0.7,-0.2", "--p", "1.5", "--q", "3", "--grid", "20000"]
    if command == "na":
        expected, default = nl.na_set(T, grid=20000), nl.na_set(T)
    else:
        expected, default = nl.sbpb_profile(T, [0.5], grid=20000), nl.sbpb_profile(T, [0.5])
        argv += ["--eps", "0.5"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == cli._json_text(expected.to_json_dict()) + "\n"
    assert out != cli._json_text(default.to_json_dict()) + "\n"


@pytest.mark.parametrize("argv", [["opnorm", "--tag", "DIAG-2-2"], ["na", "--tag", "DIAG-2-2"],
                                  ["eta", "--tag", "DIAG-2-2", "--eps", "0.5"], ["delta", "--p", "3"]])
def test_grid_zero_is_refused_not_defaulted(capsys, argv):
    """`--grid 0` reaches the analysis, which refuses it (exit 2), instead of running at the default grid."""
    code, out, err = run_cli(capsys, *argv, "--grid", "0")
    assert code == 2 and not out
    assert "grid must be a positive integer" in err


@pytest.mark.parametrize("command, analysis", [("opnorm", "opnorm"), ("na", "na_set")])
def test_json_only_commands_refuse_csv_before_any_work(capsys, monkeypatch, command, analysis):
    """opnorm and na offer only JSON, so `--format csv` is refused when the
    arguments are parsed, before the analysis runs."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{analysis} ran")

    monkeypatch.setattr(cli, analysis, refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--tag", "BLOCK-N", "--blocks", "5", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["F-CERT", "POSITIVE-BATCH"])
def test_repro_writes_reports_in_every_mode(capsys, tmp_path, tag):
    """`--write-reports` writes the reports printed, whichever way repro picked them
    (a gallery tag: `test_repro_success_exit_zero`)."""
    code, out, _ = run_cli(capsys, "repro", "--tag", tag, "--write-reports", "--report-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / f"{tag}.json") as f:
        written = json.load(f)
    assert [r["tag"] for r in written] == [r["tag"] for r in json.loads(out)] == [tag]
    assert (tmp_path / "index.csv").read_text().count("\n") == 2


def test_delta_has_no_seed_option(capsys):
    """delta_numeric draws no random numbers, so delta takes no --seed."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", "--p", "3", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _readme_cli_examples() -> list[str]:
    """The commands of the README's CLI section, without their comments."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.split("#", 1)[0].strip()]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, line):
    """Every command the README shows under CLI runs and exits 0."""
    monkeypatch.setenv("NORMLAB_REPORT_DIR", str(tmp_path))
    prog, *argv = shlex.split(line)
    assert prog == "normlab"
    assert run_cli(capsys, *argv)[0] == 0
