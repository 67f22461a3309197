"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench -q

They run every workload at the "tiny" size, check the correctness gates
against deliberately wrong outputs, and check that the printed metric
names are the ones BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gates
import spec
from spans import Tracer, attribute

HERE = Path(__file__).resolve().parent
ROOT = spec.ROOT
sys.path.insert(0, str(ROOT / "src"))


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    bench = _bench_json()
    declared = bench["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    assert all(res["metrics"][m["name"]]["unit"] == m["unit"]
               for m in declared)
    if trace:
        v = {k: m["value"] for k, m in res["metrics"].items()}
        covered = sum(v[f"layer.{k}.self_s"] for k in spec.LAYERS)
        assert covered + v["unattributed_s"] == \
            pytest.approx(v["trace.wall_s"], abs=1e-9)
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        printed = {ln.split()[0] for ln in proc.stdout.splitlines() if ln}
        assert {"failed_frac"} | {n for n, _ in spec.REPORTED} <= printed


def test_benchmark_json_matches_spec():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(spec.PER_LAYER)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_status_table_is_the_recorded_ledger():
    table = gates.load_status_table()
    statuses = [s for checks in table.values() for s in checks.values()]
    assert list(table) == list(spec.FIXTURES)
    assert all(list(checks) == list(spec.CHECKS) for checks in table.values())
    assert len(statuses) == 220
    assert statuses.count("SKIPPED") == 29
    assert statuses.count(gates.ERROR) == 0


def _results_from(table):
    return [SimpleNamespace(fixture=f, check=c, status=s, message="",
                            mismatch=False)
            for f, checks in table.items() for c, s in checks.items()]


def test_verify_gate_flags_a_flipped_entry():
    table = gates.load_status_table()
    results = _results_from(table)
    names = list(table)
    assert not any(gates.verify_problems(results, table, names).values())
    flipped = json.loads(json.dumps(table))
    flipped["catenoid"]["isotropy"] = "PASS"     # recorded: FAIL
    problems = gates.verify_problems(results, flipped, names)
    assert problems["catenoid"] and \
        not any(v for k, v in problems.items() if k != "catenoid")


def test_verify_gate_counts_an_error_the_ledger_misses():
    from plurimean.pipeline import ERROR, CheckResult
    table = gates.load_status_table()
    results = _results_from(table)
    err = CheckResult(fixture="sphere", check="chain", status=ERROR,
                      residual=None, threshold=None, expected=None,
                      message="RuntimeError: injected")
    assert not err.mismatch   # the runner's own ledger lets it through
    results = [err if (r.fixture, r.check) == ("sphere", "chain") else r
               for r in results]
    problems = gates.verify_problems(results, table, list(table))
    assert any("ERROR" in p for p in problems["sphere"])


def test_verify_gate_flags_a_missing_result():
    table = gates.load_status_table()
    results = [r for r in _results_from(table)
               if (r.fixture, r.check) != ("veronese", "psi")]
    problems = gates.verify_problems(results, table, list(table))
    assert problems["veronese"] == ["psi: missing"]


def test_family_gate():
    report = "metric_deviation: 0\nmatch:\n  fixture: helicoid\n" \
             "  rms: 2.8e-12\n"
    mesh = "v 0 0 0\n" * 4 + "f 1 2 4\n"
    csv = "fixture,theta\n" + "catenoid,0\n" * 9
    ok = dict(grid=2, n_thetas=9, rms_max=1e-10)
    assert gates.family_problems(0, report, mesh, csv, **ok) == []
    assert gates.family_problems(1, report, mesh, csv, **ok)
    assert gates.family_problems(
        0, report.replace("2.8e-12", "3e-6"), mesh, csv, **ok)
    assert gates.family_problems(0, report, mesh + "v 1 1 1\n", csv, **ok)
    assert gates.family_problems(0, report, mesh, csv + "x,1\n", **ok)


def test_flag_gates():
    assert gates.flag_problems("e", True, False, True, False) == []
    assert gates.flag_problems("e", True, True, True, False)
    assert gates.split_problems("s", 1e-12) == []
    assert gates.split_problems("s", 1e-6)
    assert gates.split_problems("s", float("nan"))


def test_tracer_restores_every_binding():
    import plurimean.cli  # noqa: F401  (loads every module)
    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if k.startswith("plurimean")}
    checks = dict(sys.modules["plurimean.pipeline"].CHECKS)
    tracer = Tracer()
    tracer.install()
    from plurimean import chartcalc, forms, kernels
    assert forms.eval_jet is chartcalc.eval_jet
    assert forms.eval_jet is not mods["plurimean.forms"]["eval_jet"]
    assert kernels.gauss_curvature_numpy is kernels.gauss_curvature
    tracer.restore()
    for k, before in mods.items():
        after = vars(sys.modules[k])
        assert all(after[name] is val for name, val in before.items())
    assert sys.modules["plurimean.pipeline"].CHECKS == checks


def test_attribute_partitions_the_interval():
    # root [0, 10] with children [1, 4] and [5, 6]; [2, 3] nested in [1, 4]
    spans = [["cli.main", None, 0.0, 10.0, None],
             ["forms.compute_geometry", 0, 1.0, 4.0, None],
             ["chartcalc.eval_jet", 1, 2.0, 3.0, None],
             ["forms.compute_geometry", 0, 5.0, 6.0, None]]
    agg = attribute(spans, -1.0, 12.0)
    assert agg["layers"]["cli"] == pytest.approx(6.0)
    assert agg["layers"]["forms"] == pytest.approx(3.0)
    assert agg["layers"]["chartcalc"] == pytest.approx(1.0)
    assert agg["unattributed_s"] == pytest.approx(3.0)
    assert agg["by_name"]["forms.compute_geometry"]["busy_s"] == \
        pytest.approx(4.0)


def test_times_are_restated_at_the_reference_speed():
    import run
    spins = [1.2 * spec.REF_SPIN_S, 1.5 * spec.REF_SPIN_S,
             9.0 * spec.REF_SPIN_S]
    assert run.at_reference_speed(3.0, spins) == pytest.approx(2.0)


def test_cpu_picker_pins_to_an_allowed_cpu():
    import os
    import child
    allowed = os.sched_getaffinity(0)
    try:
        pick = child.CpuPicker()
        pick()
        pick()   # within `every` of the first: does nothing
        assert len(pick.spins) == 2 and min(pick.spins) > 0
        assert len(os.sched_getaffinity(0)) == 1
        assert os.sched_getaffinity(0) <= allowed
    finally:
        os.sched_setaffinity(0, allowed)


def test_tail_percentile():
    assert spec.tail_percentile(3) == 50
    assert spec.tail_percentile(33) == 69
    assert spec.tail_percentile(100) == 90


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run("--workload", "flag-grading", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
