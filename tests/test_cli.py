"""Command-line interface: verbs, flags, exit codes, exports."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plurimean
from plurimean import cli, family, fixtures, kaehler, pipeline


def test_theta_parsing():
    assert cli._parse_theta("0.5") == 0.5
    assert cli._parse_theta("pi") == pytest.approx(np.pi)
    assert cli._parse_theta("pi/2") == pytest.approx(np.pi / 2)
    assert cli._parse_theta("3pi/8") == pytest.approx(3 * np.pi / 8)
    assert cli._parse_theta("-pi/4") == pytest.approx(-np.pi / 4)
    for text in ("pi*2", "pi/0", "0pi/0", "nan", "inf", "-infpi",
                 "nanpi/2"):
        with pytest.raises(ValueError, match="angle"):
            cli._parse_theta(text)


@pytest.mark.parametrize("theta", ["pi/0", "nan", "pi/4,inf"])
def test_verify_rejects_angles_that_are_not_finite(theta, capsys):
    assert cli.main(["verify", "--fixtures", "veronese",
                     "--theta", theta]) == 2
    assert "angle" in capsys.readouterr().err


def test_family_rejects_a_one_point_grid(capsys):
    assert cli.main(["family", "--fixture", "catenoid",
                     "--grid", "1"]) == 2
    assert "at least 2 grid points" in capsys.readouterr().err


def test_list_fixtures(capsys):
    assert cli.main(["list-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "catenoid" in out
    assert "skewed-plane" in out


def test_verify_exit_code_counts_mismatches(tmp_path):
    rpt = tmp_path / "report.txt"
    code = cli.main([
        "verify", "--fixtures", "catenoid,ellipsoid",
        "--checks", "kaehler,ppmc,structure-equations",
        "--grid", "5", "--theta", "pi/4",
        "--h", "1e-4",
        "--report", str(rpt)])
    assert code == 0  # the ellipsoid failing ppmc is expected
    text = rpt.read_text()
    assert "expectation_mismatches: 0" in text
    assert "ellipsoid" in text


def test_verify_exit_code_counts_errors(monkeypatch, tmp_path):
    def boom(ctx):
        raise RuntimeError("check body failed")

    monkeypatch.setitem(pipeline.CHECKS, "ppmc", boom)
    rpt = tmp_path / "report.txt"
    code = cli.main(["verify", "--fixtures", "plane",
                     "--checks", "kaehler,ppmc", "--grid", "5",
                     "--report", str(rpt)])
    assert code == 1
    assert "RuntimeError: check body failed" in rpt.read_text()


def test_verify_error_counts_as_mismatch(monkeypatch, tmp_path):
    def boom(ctx):
        raise RuntimeError("check body failed")

    monkeypatch.setitem(pipeline.CHECKS, "ppmc", boom)
    rpt = tmp_path / "report.txt"
    code = cli.main(["verify", "--fixtures", "plane",
                     "--checks", "kaehler,ppmc", "--report", str(rpt)])
    text = rpt.read_text()
    assert code == 1  # one ERROR that is also one mismatch
    assert "expectation_mismatches: 1" in text
    assert "matches_expectation: false" in text


def test_verify_exit_code_never_wraps_to_zero(monkeypatch, tmp_path):
    def wrong(ctx):
        return 1.0, {}  # FAIL where PASS is expected

    # no gate: the rows run on the plane without a kaehler row
    table = tuple(pipeline.Check(f"wrong-{k}", wrong, pipeline.TIER1,
                                 lambda flags: pipeline.PASS, gates=())
                  for k in range(256))
    monkeypatch.setattr(pipeline, "TABLE", table)
    monkeypatch.setattr(pipeline, "CHECKS", {c.name: c.body for c in table})
    code = cli.main(["verify", "--fixtures", "plane", "--checks", "all",
                     "--report", str(tmp_path / "report.txt")])
    assert code == 125


def test_verify_gates_a_non_kaehler_fixture_without_its_kaehler_row(
        tmp_path):
    """skewed-plane fails kaehler, so its other rows read SKIPPED whether
    or not the kaehler row is selected."""
    rpt = tmp_path / "report.txt"
    code = cli.main(["verify", "--fixtures", "skewed-plane",
                     "--checks", "ppmc,closedness", "--report", str(rpt)])
    text = rpt.read_text()
    assert code == 0
    assert text.count("status: SKIPPED") == 2
    assert text.count("note: fixture not admitted as Kaehler") == 2
    assert "kaehler:" not in text and "skipped: 2" in text


def test_verify_reads_a_kaehler_error_as_an_error_of_each_gated_row(
        monkeypatch, tmp_path):
    """A NaN kaehler residual is the kaehler row's ERROR, so the rows it
    admits read ERROR with a note that names it, not SKIPPED, though
    the kaehler row is not selected; verify exits non-zero."""
    monkeypatch.setattr(kaehler, "kaehler_residual",
                        lambda *args: (np.nan, np.nan))
    rpt = tmp_path / "report.txt"
    code = cli.main(["verify", "--fixtures", "sphere",
                     "--checks", "ppmc,isotropy", "--report", str(rpt)])
    text = rpt.read_text()
    assert code == 2  # two ERRORs, each a mismatch
    assert text.count("status: ERROR") == 2
    assert text.count("note: ValueError: kaehler reads ERROR: NaN in "
                      "residual, orthogonality, parallelity") == 2
    assert "skipped: 0" in text


def test_cli_import_leaves_out_sympy():
    src = str(Path(plurimean.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, plurimean.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--tol-tier3", "1e-3"],
                                  ["--tol-tier1", "1e-8"],
                                  ["--tol-tier2", "1e-5"]])
def test_verify_rejects_removed_options(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--fixtures", "plane", "--checks", "kaehler",
                  *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


def test_verify_help_lists_only_options_that_take_effect(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--grid", "--h", "--theta"):
        assert flag in text
    # the thresholds are the check table's
    assert "--tol-tier" not in text
    assert "--seed" not in text
    assert "unused" not in text


def test_verify_unknown_fixture_errors(capsys):
    assert cli.main(["verify", "--fixtures", "moebius",
                     "--checks", "kaehler"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--h", "0"], ["--h", "nan"], ["--h", "inf"],
    ["--grid", "1"], ["--theta", ","], ["--checks", ","],
    ["--fixtures", ","], ["--fixtures", "veronese,veronese"],
])
def test_verify_rejects_settings_under_which_checks_pass_vacuously(
        flag, capsys):
    assert cli.main(["verify", "--fixtures", "veronese",
                     "--checks", "kaehler,eq4,structure-equations",
                     *flag]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_a_fixture_file_with_one_domain_pair(tmp_path,
                                                            capsys):
    # the catenoid's chart has two coordinates
    fx = tmp_path / "cat.fixture"
    fx.write_text("name: cat\nformula: catenoid\ndomain: -0.5 0.5\n")
    assert cli.main(["verify", "--fixtures", "plane",
                     "--fixture-file", str(fx), "--checks", "kaehler"]) == 2
    assert "error: catenoid: the domain must be 2" in capsys.readouterr().err


def test_verify_with_fixture_file(tmp_path):
    fx = tmp_path / "cat.fixture"
    fx.write_text("name: my-cat\nformula: catenoid\n"
                  "domain: -0.5 0.5, -0.5 0.5\n")
    rpt = tmp_path / "report.txt"
    code = cli.main(["verify", "--fixtures", "plane",
                     "--fixture-file", str(fx),
                     "--checks", "kaehler,ppmc", "--grid", "5",
                     "--report", str(rpt)])
    assert code == 0
    assert "my-cat" in rpt.read_text()


def test_verify_rejects_a_fixture_file_named_like_a_registry_fixture(
        tmp_path, capsys):
    fx = tmp_path / "s.fixture"
    fx.write_text("name: sphere\nformula: catenoid\n")
    assert cli.main(["verify", "--fixtures", "all", "--fixture-file",
                     str(fx), "--checks", "kaehler"]) == 2
    assert "error: fixture 'sphere'" in capsys.readouterr().err


@pytest.mark.parametrize("selected,ran", [
    ("mysphere", ["mysphere"]),
    ("plane", ["plane", "mysphere"]),
    ("all", fixtures.fixture_names() + ["mysphere"]),
])
def test_report_lists_the_fixtures_that_ran(selected, ran, tmp_path):
    fx = tmp_path / "s.fixture"
    fx.write_text("name: mysphere\nformula: sphere\n")
    rpt = tmp_path / "report.txt"
    assert cli.main(["verify", "--fixtures", selected, "--fixture-file",
                     str(fx), "--checks", "kaehler", "--grid", "5",
                     "--report", str(rpt)]) == 0
    text = rpt.read_text()
    assert f"  fixtures: {', '.join(ran)}\n" in text
    assert re.findall(r"^  (\S+):$", text, re.M) == ran


def test_eq4_stencil_keeps_3h_off_the_domain_boundary(tmp_path):
    """eq4's shifted grids reach 3h, like every central difference: at
    h = 0.05 the catenoid grid lies within 0.15 of its boundary."""
    rpt = tmp_path / "report.txt"
    assert cli.main(["verify", "--fixtures", "catenoid",
                     "--checks", "kaehler,eq4", "--h", "0.05",
                     "--report", str(rpt)]) == 1
    eq4 = rpt.read_text().split("    eq4:\n")[1]
    assert eq4.startswith("      status: ERROR\n")
    assert "note: BoundaryError: catenoid: points within 3h=0.15" in eq4


def test_a_fixture_file_note_names_the_file_fixture(tmp_path):
    fx = tmp_path / "f.fixture"
    fx.write_text("name: cat-narrow\nformula: catenoid\n")
    rpt = tmp_path / "report.txt"
    cli.main(["verify", "--fixtures", "plane", "--checks", "kaehler,eq4",
              "--fixture-file", str(fx), "--h", "0.2",
              "--report", str(rpt)])
    eq4 = rpt.read_text().split("  cat-narrow:\n")[1].split("    eq4:\n")[1]
    assert "note: BoundaryError: cat-narrow: points within 3h=0.6" in eq4


def test_family_mesh_and_csv_export(tmp_path):
    mesh = tmp_path / "out.obj"
    sweep = tmp_path / "sweep.csv"
    code = cli.main(["family", "--fixture", "catenoid",
                     "--theta", "pi/2", "--grid", "11",
                     "--match", "helicoid",
                     "--mesh", str(mesh), "--sweep-csv", str(sweep),
                     "--report", str(tmp_path / "fam.txt")])
    assert code == 0
    lines = mesh.read_text().splitlines()
    vs = [ln for ln in lines if ln.startswith("v ")]
    fs = [ln for ln in lines if ln.startswith("f ")]
    assert len(vs) == 11 * 11
    assert len(fs) == 2 * 10 * 10
    assert all(len(ln.split()) == 4 for ln in vs + fs)
    # faces are 1-based and in range
    idx = [int(t) for ln in fs for t in ln.split()[1:]]
    assert min(idx) >= 1 and max(idx) <= 121
    with open(sweep) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9  # k*pi/8 for k = 0..8
    assert set(rows[0]) == {"fixture", "theta", "gauss", "codazzi",
                            "ricci", "closedness"}
    assert all(float(r["closedness"]) < 1e-6 for r in rows)


def test_family_builds_one_geometry(tmp_path, geometry_calls):
    code = cli.main(["family", "--fixture", "catenoid", "--grid", "21",
                     "--match", "helicoid",
                     "--sweep-csv", str(tmp_path / "sweep.csv"),
                     "--report", str(tmp_path / "fam.txt")])
    assert code == 0
    assert [(name, G) for name, G, _ in geometry_calls] == [("catenoid",
                                                              21 * 21)]


def test_family_sweeps_closedness_in_one_call(tmp_path, monkeypatch):
    # integrate_family takes the member's own angle pi/2, and the sweep
    # takes all its angles in one call, which copies d2 once
    calls = []
    closedness = family.closedness_residual

    def spy(geom, thetas):
        calls.append(list(thetas))
        return closedness(geom, thetas)

    monkeypatch.setattr(family, "closedness_residual", spy)
    code = cli.main(["family", "--fixture", "catenoid", "--theta", "pi/2",
                     "--grid", "11",
                     "--sweep-csv", str(tmp_path / "sweep.csv"),
                     "--report", str(tmp_path / "fam.txt")])
    assert code == 0
    assert calls == [[np.pi / 2], list(family.THETA_SWEEP)]


def test_family_higher_ambient_mesh_comments(tmp_path):
    mesh = tmp_path / "hc.obj"
    code = cli.main(["family", "--fixture", "holomorphic-curve",
                     "--theta", "0", "--grid", "9",
                     "--mesh", str(mesh),
                     "--report", str(tmp_path / "r.txt")])
    assert code == 0
    lines = mesh.read_text().splitlines()
    coords = [ln for ln in lines if ln.startswith("# coords ")]
    assert len(coords) == 81  # full 4d coordinates kept as comments
    assert all(len(ln.split()) == 2 + 4 for ln in coords)


def test_family_rejects_nonminimal_fixture(capsys):
    assert cli.main(["family", "--fixture", "sphere",
                     "--theta", "pi/2"]) == 2
    assert "not closed" in capsys.readouterr().err


def test_family_rejects_a_match_of_another_chart_dimension(capsys):
    assert cli.main(["family", "--fixture", "catenoid", "--grid", "11",
                     "--match", "product-spheres"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "catenoid (chart dimension 2)" in err
    assert "product-spheres (chart dimension 4)" in err


def test_flag_demo_exit_codes(tmp_path):
    assert cli.main(["flag-demo", "--algebra", "unitary",
                     "--dims", "1,2",
                     "--report", str(tmp_path / "u.txt")]) == 0
    assert cli.main(["flag-demo", "--algebra", "orthogonal",
                     "--n", "6", "--r", "2",
                     "--report", str(tmp_path / "o.txt")]) == 0
    # so(4) with two isotropic levels fails the generation condition,
    # and r = 0 (xi = 0, no g_1) is a valid element that fails it too
    for r in ("2", "0"):
        assert cli.main(["flag-demo", "--algebra", "orthogonal",
                         "--n", "4", "--r", r,
                         "--report", str(tmp_path / "bad.txt")]) == 1
        assert "passed: false" in (tmp_path / "bad.txt").read_text()


@pytest.mark.parametrize("residual", ["A3_residual", "bracket_residual",
                                      "cartan_split_residual"])
def test_flag_demo_fails_on_a_large_bracket_residual(residual, monkeypatch,
                                                     tmp_path):
    """C1 and C2 pass, but a bracket relation above the strict tier
    1e-8 makes the exit code 1."""
    flags = cli.flags
    if residual == "A3_residual":
        grade = flags.grade

        def patched(elem):
            return dataclasses.replace(grade(elem), a3_residual=2e-8)
        monkeypatch.setattr(flags, "grade", patched)
    elif residual == "bracket_residual":
        monkeypatch.setattr(flags, "bracket_grading_residual",
                            lambda grading: 2e-8)
    else:
        split = flags.cartan_split

        def patched(grading):
            kc, pc, res = split(grading)
            return kc, pc, {**res, "[p,p] in k": 2e-8}
        monkeypatch.setattr(flags, "cartan_split", patched)
    out = tmp_path / "report.txt"
    assert cli.main(["flag-demo", "--report", str(out)]) == 1
    text = out.read_text()
    assert f"{residual}: 2.000000e-08" in text
    assert "C1_integer_gaps: true" in text and "passed: true" in text


def test_flag_demo_fails_on_a_nan_in_g1(monkeypatch, tmp_path):
    flags = cli.flags
    grade = flags.grade

    def patched(elem):
        grading = grade(elem)
        g1 = grading.spaces[1.0].copy()
        g1[0, 0, 0] = np.nan
        return dataclasses.replace(grading,
                                   spaces={**grading.spaces, 1.0: g1})
    monkeypatch.setattr(flags, "grade", patched)
    out = tmp_path / "report.txt"
    assert cli.main(["flag-demo", "--report", str(out)]) == 1
    text = out.read_text()
    assert "bracket_residual: nan" in text
    assert "cartan_split_residual: nan" in text


def test_flag_demo_fails_on_a_nan_in_xi(monkeypatch, tmp_path):
    """A NaN in xi fails the A3 gate while C1, C2 and the bracket
    residuals all pass."""
    elem = cli.flags.canonical_unitary([1, 2])
    xi = elem.xi.copy()
    xi[0, 1] = np.nan
    monkeypatch.setattr(cli, "_demo_element",
                        lambda args: dataclasses.replace(elem, xi=xi))
    out = tmp_path / "report.txt"
    assert cli.main(["flag-demo", "--report", str(out)]) == 1
    text = out.read_text()
    assert "A3_residual: nan" in text
    assert "C1_integer_gaps: true" in text and "passed: true" in text


@pytest.mark.parametrize("argv,named", [
    (["--algebra", "orthogonal", "--n", "4", "--r", "3"], "n=4, r=3"),
    (["--algebra", "orthogonal", "--n", "0", "--r", "0"], "n=0"),
    (["--algebra", "orthogonal", "--r", "-1"], "n=4, r=-1"),
    (["--algebra", "unitary", "--dims", ""], "got []"),
], ids=["r-above-n-half", "n-zero", "r-negative", "dims-empty"])
def test_flag_demo_usage_errors_exit_2(argv, named, capsys):
    """A shape that names no element is a usage error (exit 2) with a
    message naming the value, not a failed C1/C2 verdict (exit 1)."""
    assert cli.main(["flag-demo", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv,named", [
    (["--algebra", "orthogonal", "--seed", "7", "--dims", "3,3",
      "--lambda0", "0.5"], "--dims applies to --algebra unitary only"),
    (["--algebra", "orthogonal", "--seed", "7"], "--seed"),
    (["--algebra", "orthogonal", "--lambda0", "0"], "--lambda0"),
    (["--n", "9", "--r", "3"], "--n applies to --algebra orthogonal only"),
    (["--algebra", "unitary", "--r", "1"], "--r"),
], ids=["unitary-options", "seed", "lambda0-default", "orthogonal-options",
        "r-default"])
def test_flag_demo_rejects_an_option_of_the_other_algebra(argv, named,
                                                          capsys):
    """An option that the algebra being built does not read is a usage
    error naming it, also at its default value, and nothing is
    printed."""
    assert cli.main(["flag-demo", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv,defaults", [
    ([], ["--dims", "1,2", "--lambda0", "0"]),
    (["--algebra", "orthogonal"], ["--n", "4", "--r", "1"]),
], ids=["unitary", "orthogonal"])
def test_flag_demo_defaults_are_the_algebra_s_own(argv, defaults, capsys):
    assert cli.main(["flag-demo", *argv]) == 0
    implicit = capsys.readouterr().out
    assert cli.main(["flag-demo", *argv, *defaults]) == 0
    assert capsys.readouterr().out == implicit


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_flag_demo_rejects_a_lambda0_that_is_not_finite(value, capsys):
    assert cli.main(["flag-demo", f"--lambda0={value}"]) == 2
    err = capsys.readouterr().err
    assert "error: lambda0 must be finite" in err
    assert "convert" not in err


def test_flag_demo_seeded_frames(capsys):
    assert cli.main(["flag-demo", "--algebra", "unitary",
                     "--dims", "1,2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "A3_residual" in out
