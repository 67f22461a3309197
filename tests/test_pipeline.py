"""Check runner: classification, skipping, ledger comparison, reports."""

import numpy as np
import pytest

from plurimean import pipeline, report
from plurimean.fixtures import load_fixture_file, registry


def test_classify_tiers():
    assert pipeline.classify(1e-9, 1e-8) == pipeline.PASS
    assert pipeline.classify(1e-7, 1e-8) == pipeline.INCONCLUSIVE
    assert pipeline.classify(1e-5, 1e-8) == pipeline.FAIL
    assert pipeline.classify(np.inf, 1e-8) == pipeline.FAIL


def test_config_validation():
    with pytest.raises(ValueError):
        pipeline.RunConfig(grid=3)
    with pytest.raises(ValueError):
        pipeline.RunConfig(tol_tier2=0.0)
    with pytest.raises(ValueError):
        pipeline.run(pipeline.RunConfig(checks=["nonsense"]))
    with pytest.raises(KeyError):
        pipeline.run(pipeline.RunConfig(fixtures=["moebius"],
                                        checks=["kaehler"]))


def _subset_run(fixtures, checks):
    cfg = pipeline.RunConfig(fixtures=fixtures, checks=checks, grid=5)
    return pipeline.run(cfg)


def test_expected_statuses_on_mixed_fixtures():
    rep = _subset_run(["catenoid", "ellipsoid"],
                      ["kaehler", "ppmc", "gauss-levi"])
    by = {(r.fixture, r.check): r for r in rep.results}
    assert by[("catenoid", "ppmc")].status == pipeline.PASS
    assert by[("ellipsoid", "ppmc")].status == pipeline.FAIL
    # negative control failing is NOT a mismatch
    assert not by[("ellipsoid", "ppmc")].mismatch
    assert len(rep.mismatches) == 0


def test_non_kaehler_fixture_skips_downstream():
    rep = _subset_run(["skewed-plane"], ["kaehler", "ppmc", "codazzi"])
    statuses = {r.check: r.status for r in rep.results}
    assert statuses["kaehler"] == pipeline.FAIL
    assert statuses["ppmc"] == pipeline.SKIPPED
    assert statuses["codazzi"] == pipeline.SKIPPED
    assert len(rep.mismatches) == 0  # expected failure + skips


def test_checks_run_in_pipeline_order():
    rep = _subset_run(["catenoid"], ["psi", "kaehler", "ppmc"])
    order = [r.check for r in rep.results]
    assert order == ["kaehler", "ppmc", "psi"]


def test_extra_record_from_fixture_file(tmp_path):
    path = tmp_path / "cat.fixture"
    path.write_text("name: my-catenoid\nformula: catenoid\n"
                    "domain: -0.5 0.5, -0.5 0.5\n")
    rec = load_fixture_file(path)
    cfg = pipeline.RunConfig(fixtures=["plane"],
                             checks=["kaehler", "ppmc"], grid=5)
    rep = pipeline.run(cfg, extra_records=[rec])
    names = {r.fixture for r in rep.results}
    assert names == {"plane", "my-catenoid"}
    assert len(rep.mismatches) == 0


def test_report_tree_is_stably_ordered():
    rep = _subset_run(["catenoid", "plane"], ["kaehler", "ppmc"])
    tree = report.report_tree(rep)
    assert list(tree) == ["run", "fixtures", "summary"]
    assert list(tree["fixtures"]) == ["catenoid", "plane"]
    assert list(tree["fixtures"]["catenoid"]) == ["kaehler", "ppmc"]
    text1 = report.render_report(rep)
    text2 = report.render_report(_subset_run(["catenoid", "plane"],
                                             ["kaehler", "ppmc"]))
    assert text1 == text2  # deterministic rendering
    assert "expectation_mismatches: 0" in text1


def test_full_registry_matches_expectation_ledger():
    cfg = pipeline.RunConfig(grid=5, thetas=[0.0, np.pi / 4, np.pi / 2])
    rep = pipeline.run(cfg)
    mism = [(r.fixture, r.check, r.status, r.expected)
            for r in rep.mismatches]
    assert mism == []
    assert not any(r.status == pipeline.ERROR for r in rep.results)


def test_render_tree_formats_scalars():
    text = report.render_tree({"a": 0.0, "b": True, "c": 2.0,
                               "d": {"e": 1.5e-9}, "f": np.inf})
    assert "a: 0" in text
    assert "b: true" in text
    assert "c: 2" in text
    assert "  e: 1.500000e-09" in text
    assert "f: inf" in text


def test_default_run_builds_each_geometry_once(geometry_calls):
    rep = pipeline.run(pipeline.RunConfig())
    assert rep.mismatches == []
    assert len(geometry_calls) == len(set(geometry_calls))
    # one geometry per fixture: the bundle derivatives are closed forms
    # on it, and eq4's finite differences evaluate jets, not geometries
    assert [name for name, _, _ in geometry_calls] == [
        r.name for r in registry()]
    assert len(geometry_calls) == 11


def test_fixture_file_grid_takes_effect(tmp_path, geometry_calls):
    path = tmp_path / "cat.fixture"
    path.write_text("name: cat5\nformula: catenoid\ngrid: 5\n")
    rep = pipeline.run(pipeline.RunConfig(fixtures=[],
                                          checks=["kaehler", "ppmc"]),
                       extra_records=[load_fixture_file(path)])
    assert [r.status for r in rep.results] == [pipeline.PASS] * 2
    assert [G for _, G, _ in geometry_calls] == [25]


def test_run_grid_applies_to_fixtures_without_their_own(geometry_calls):
    pipeline.run(pipeline.RunConfig(fixtures=["catenoid", "product-spheres"],
                                     checks=["kaehler"], grid=7))
    assert [(name, G) for name, G, _ in geometry_calls] == [
        ("catenoid", 7 * 7), ("product-spheres", 5 ** 4)]


def test_kaehler_and_grassmann_checks_reuse_the_metric(monkeypatch,
                                                       geometry_calls):
    # one inverse metric per geometry: the checks read the geometry's
    # g, Gamma and tangent projector instead of rebuilding them
    inversions = []
    inv = np.linalg.inv

    def spy(a):
        inversions.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    rep = _subset_run(["catenoid", "veronese", "product-spheres"],
                      ["kaehler", "grassmann"])
    assert [r.status for r in rep.results] == [pipeline.PASS] * 6
    assert len(inversions) == len(geometry_calls) == 3
