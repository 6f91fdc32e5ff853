import json
import os
import sys

import pytest

from aggsep.cli import EXIT_LP, EXIT_OK, EXIT_PARSE, main

from helpers import DATA_DIR, EXAMPLE1_MPS, corpus_paths

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_relax_writes_solution(tmp_path):
    out = tmp_path / "point.sol"
    assert main(["relax", "--instance", EXAMPLE1_MPS, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("x1 ")


def test_relax_solves_beales_cycling_lp(tmp_path):
    # from the slack basis Dantzig's rule cycles on Beale's LP; the solve
    # notices the repeated basis and ends at the optimum x = (1, 0, 1, 0)
    out = tmp_path / "beale.sol"
    argv = ["relax", "--instance", os.path.join(DATA_DIR, "beale.mps"), "--out", str(out)]
    assert main(argv) == EXIT_OK
    point = {name: float(v) for name, v in map(str.split, out.read_text().splitlines())}
    assert point == pytest.approx({"x1": 1.0, "x2": 0.0, "x3": 1.0, "x4": 0.0}, abs=1e-9)


def test_separate_end_to_end(tmp_path):
    mps, sol = corpus_paths()[0]
    cuts = tmp_path / "cuts.jsonl"
    report = tmp_path / "metrics.report"
    code = main([
        "separate", "--instance", mps, "--solution", sol, "--algo", "both",
        "--start-rows", "all", "--out", str(cuts), "--report", str(report),
    ])
    assert code == EXIT_OK
    for line in cuts.read_text().splitlines():
        rec = json.loads(line)
        assert rec["sense"] == "<="
        assert set(rec) >= {"name", "coefficients", "rhs", "violation", "provenance"}
    text = report.read_text()
    assert "algorithm lasso" in text and "algorithm mw" in text


def test_separate_single_algorithm(tmp_path):
    mps, sol = corpus_paths()[0]
    cuts = tmp_path / "cuts.jsonl"
    code = main([
        "separate", "--instance", mps, "--solution", sol, "--algo", "mw",
        "--start-rows", "top:5", "--out", str(cuts),
    ])
    assert code == EXIT_OK
    for line in cuts.read_text().splitlines():
        assert json.loads(line)["provenance"]["algorithm"] == "mw"


def test_compare_deterministic_bytes(tmp_path, capsys):
    mps, sol = corpus_paths()[0]
    outputs = []
    for tag in ("a", "b"):
        report = tmp_path / ("report_%s" % tag)
        cuts = tmp_path / ("cuts_%s" % tag)
        code = main([
            "compare", "--instance", mps, "--solution", sol,
            "--report", str(report), "--out", str(cuts),
            "--start-rows", "all",
        ])
        assert code == EXIT_OK
        outputs.append((report.read_bytes(), cuts.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("spec", ["top:x", "top:0", "top:-1", "top:"])
def test_start_rows_rejects_bad_top_k(tmp_path, capsys, spec):
    mps, sol = corpus_paths()[0]
    for command in (["separate", "--out", str(tmp_path / "cuts.jsonl")],
                    ["compare", "--report", str(tmp_path / "report")]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--instance", mps, "--solution", sol, "--start-rows", spec])
        assert exc.value.code == EXIT_PARSE
        assert "K >= 1" in capsys.readouterr().err
    assert not (tmp_path / "cuts.jsonl").exists()


@pytest.mark.parametrize("value", ["-1", "x"])
def test_maxaggr_rejects_negative(tmp_path, capsys, value):
    mps, sol = corpus_paths()[0]
    for command in (["separate", "--out", str(tmp_path / "cuts.jsonl")],
                    ["compare", "--report", str(tmp_path / "report")]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--instance", mps, "--solution", sol, "--maxaggr", value])
        assert exc.value.code == EXIT_PARSE
        assert "integer N >= 0" in capsys.readouterr().err
    assert not (tmp_path / "cuts.jsonl").exists()


@pytest.mark.parametrize("flag", ["--density-threshold", "--max-bad-vars",
                                  "--max-useful-rows", "--violation-threshold"])
def test_removed_tuning_flags_are_unrecognized(tmp_path, capsys, flag):
    mps, sol = corpus_paths()[0]
    with pytest.raises(SystemExit) as exc:
        main(["separate", "--instance", mps, "--solution", sol,
              "--out", str(tmp_path / "cuts.jsonl"), flag, "0.5"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_compare_prints_diagnostics_like_separate(tmp_path, capsys):
    mps, sol = corpus_paths()[0]  # corpus01: c4 has no bad column at its point
    errs = []
    for command in (["separate", "--out", str(tmp_path / "cuts.jsonl")],
                    ["compare", "--report", str(tmp_path / "report")]):
        assert main(command + ["--instance", mps, "--solution", sol,
                               "--start-rows", "c4"]) == EXIT_OK
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "mw: starting row c4 dropped" in errs[1]
    assert "lasso: starting row c4 dropped" in errs[1]


def test_start_rows_and_defaults_reach_run_config():
    from aggsep.cli import _config, build_parser
    from aggsep.harness import POLICY_ALL, POLICY_NAMED, POLICY_TOP, RunConfig

    expected = {
        None: RunConfig(start_policy=POLICY_TOP),
        "top:3": RunConfig(start_policy=POLICY_TOP, start_k=3),
        "all": RunConfig(start_policy=POLICY_ALL),
        "r1,r2": RunConfig(start_policy=POLICY_NAMED, start_names=("r1", "r2")),
    }
    for spec, want in expected.items():
        flags = [] if spec is None else ["--start-rows", spec]
        for command in (["separate", "--instance", "m", "--out", "o"],
                        ["compare", "--instance", "m", "--report", "r"]):
            args = build_parser().parse_args(command + flags)
            assert _config(args, "both") == want


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mps"
    _write(str(bad), "ROWS\n L c1\n L c1\nCOLUMNS\n x c1 1.0\n")
    out = tmp_path / "cuts.jsonl"
    code = main(["separate", "--instance", str(bad), "--out", str(out)])
    assert code == EXIT_PARSE


_BOUNDED_MPS = "ROWS\n N obj\n L c1\nCOLUMNS\n x c1 1.0\nRHS\n rhs c1 1.0\n"


@pytest.mark.parametrize("case", ["lower-above-upper", "nan-point", "inf-point",
                                  "unknown-start-row", "missing-file"])
def test_bad_input_exit_code(tmp_path, capsys, case):
    mps = tmp_path / "m.mps"
    sol = tmp_path / "m.sol"
    _write(str(mps), _BOUNDED_MPS + ("BOUNDS\n UP bnd x -1\n" if case == "lower-above-upper"
                                     else ""))
    _write(str(sol), {"nan-point": "x nan\n", "inf-point": "x inf\n"}.get(case, "x 0.5\n"))
    argv = ["separate", "--instance", str(mps), "--solution", str(sol),
            "--out", str(tmp_path / "cuts.jsonl")]
    if case == "unknown-start-row":
        argv += ["--start-rows", "c1,nosuch"]
    if case == "missing-file":
        argv[2] = str(tmp_path / "absent.mps")
    assert main(argv) == EXIT_PARSE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_relax_rejects_nonfinite_objective(tmp_path, capsys):
    mps = tmp_path / "m.mps"
    _write(str(mps), "ROWS\n N obj\n L c1\nCOLUMNS\n x obj nan c1 1.0\nRHS\n rhs c1 1.0\n")
    assert main(["relax", "--instance", str(mps), "--out", str(tmp_path / "p.sol")]) == EXIT_PARSE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "line 5" in err[0]


def test_lp_failure_exit_code(tmp_path):
    infeasible = tmp_path / "infeasible.mps"
    _write(
        str(infeasible),
        "NAME infeasible\nROWS\n N obj\n L c1\n G c2\nCOLUMNS\n"
        " x c1 1.0 c2 1.0\nRHS\n rhs c1 0.0 c2 1.0\n",
    )
    out = tmp_path / "cuts.jsonl"
    code = main(["separate", "--instance", str(infeasible), "--out", str(out)])
    assert code == EXIT_LP


def test_console_script_installed():
    """`aggsep` is declared as a console script that runs `aggsep.cli.main`.

    The declaration in `pyproject.toml` is always checked and resolved the
    way an installed console-script wrapper resolves it.  The script that an
    installation registered is checked only where `aggsep` is installed;
    running from source (`PYTHONPATH=src`) registers nothing.
    """
    import importlib.metadata as md

    import aggsep.cli

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("aggsep") == "aggsep.cli:main"

    ep = md.EntryPoint(name="aggsep", value=scripts["aggsep"], group="console_scripts")
    assert ep.load() is aggsep.cli.main

    try:
        dist = md.distribution("aggsep")
    except md.PackageNotFoundError:
        return
    registered = {e.name: e.value for e in dist.entry_points if e.group == "console_scripts"}
    assert registered.get("aggsep") == "aggsep.cli:main"
