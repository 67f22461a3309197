"""Check runner: classification, skipping, ledger comparison, reports."""

import dataclasses
import functools
import re

import numpy as np
import pytest

from plurimean import family, forms, gaussmaps, kaehler, pipeline, report
from plurimean.chartcalc import ChartedImmersion
from plurimean.fixtures import (FLAG_NAMES, FixtureRecord, get_fixture,
                                get_immersion, load_fixture_file, registry)
from test_controls import _with_jets


@pytest.mark.parametrize("name", ["catenoid", "product-spheres"])
def test_fd_routes_call_the_chart_once_per_stencil(name, monkeypatch):
    """The jets check evaluates the chart once per step size and eq4
    takes one order-1 jet call: each stencil stacks its 2d shifted
    grids (d = 2m)."""
    ctx = pipeline.FixtureContext(get_fixture(name), pipeline.RunConfig())
    G, d = ctx.pts.shape
    ctx.geom  # the centre jets, before the spies
    evaluate, jet = [], []
    real_evaluate = ChartedImmersion.evaluate
    real_jet = gaussmaps.eval_jet
    monkeypatch.setattr(
        ChartedImmersion, "evaluate",
        lambda imm, pts: evaluate.append(len(pts)) or real_evaluate(imm, pts))
    monkeypatch.setattr(
        gaussmaps, "eval_jet", lambda imm, pts, order=3:
        jet.append((len(pts), order)) or real_jet(imm, pts, order))
    pipeline.CHECKS["jets"](ctx)
    assert evaluate == [2 * d * G, 2 * d * G] and jet == []
    pipeline.CHECKS["eq4"](ctx)
    assert evaluate == [2 * d * G, 2 * d * G] and jet == [(2 * d * G, 1)]


def test_classify_tiers():
    assert pipeline.classify(1e-9, 1e-8) == pipeline.PASS
    assert pipeline.classify(1e-7, 1e-8) == pipeline.INCONCLUSIVE
    assert pipeline.classify(1e-5, 1e-8) == pipeline.FAIL
    assert pipeline.classify(np.inf, 1e-8) == pipeline.FAIL


def test_config_validation():
    with pytest.raises(ValueError):
        pipeline.RunConfig(grid=3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            pipeline.RunConfig(thetas=[0.0, bad])
    with pytest.raises(ValueError):
        pipeline.run(pipeline.RunConfig(checks=["nonsense"]))
    with pytest.raises(KeyError):
        pipeline.run(pipeline.RunConfig(fixtures=["moebius"],
                                        checks=["kaehler"]))


@pytest.mark.parametrize("field,bad", [
    ("h", 0.0), ("h", -1e-4), ("h", np.nan), ("h", np.inf),
])
def test_config_rejects_steps_and_tolerances_not_finite_and_positive(
        field, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        pipeline.RunConfig(**{field: bad})


def test_config_rejects_an_empty_angle_list():
    # an empty sweep would read residual 0 and PASS
    with pytest.raises(ValueError, match="empty"):
        pipeline.RunConfig(thetas=[])


def test_nan_from_eq4_is_an_error():
    # at h = 0 every central difference is 0/0; the NaN must reach the
    # runner's guard instead of reading as residual 0
    cfg = pipeline.RunConfig(fixtures=["plane"], checks=["kaehler", "eq4"],
                             grid=5)
    cfg.h = 0.0   # set past the config check
    with np.errstate(invalid="ignore"):
        rep = pipeline.run(cfg)
    eq4 = next(r for r in rep.results if r.check == "eq4")
    assert eq4.status == pipeline.ERROR
    assert "NaN in residual" in eq4.message


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


@pytest.fixture(scope="module")
def full_run():
    return {(r.fixture, r.check): r
            for r in pipeline.run(pipeline.RunConfig()).results}


@pytest.mark.parametrize("row", [c.name for c in pipeline.TABLE])
def test_a_single_row_run_reads_as_the_full_run(row, full_run):
    """No result depends on which rows are selected: each gate reads the
    rows it needs on its own, the kaehler row's result among them."""
    rep = pipeline.run(pipeline.RunConfig(checks=[row]))
    assert len(rep.results) == len(registry())
    for r in rep.results:
        full = full_run[r.fixture, row]
        assert ((r.status, r.residual, r.message, r.expected, r.extras)
                == (full.status, full.residual, full.message,
                    full.expected, full.extras)), r.fixture


@pytest.mark.parametrize("checks", [["kaehler", "ppmc"], ["ppmc"]])
def test_the_kaehler_body_runs_once_per_fixture(monkeypatch, checks):
    """The admission gate and the kaehler row read one result."""
    calls = []
    residual = kaehler.kaehler_residual
    monkeypatch.setattr(kaehler, "kaehler_residual",
                        lambda *args: calls.append(1) or residual(*args))
    rep = pipeline.run(pipeline.RunConfig(checks=checks))
    assert len(calls) == len(registry())
    ppmc = {r.fixture: r.status for r in rep.results if r.check == "ppmc"}
    assert ppmc["skewed-plane"] == pipeline.SKIPPED
    assert list(ppmc.values()).count(pipeline.SKIPPED) == 1


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


@pytest.mark.parametrize("names", [["sphere"], ["mysphere", "mysphere"]])
def test_extra_record_may_not_reuse_a_fixture_name(tmp_path, names):
    """A record named like a registry fixture, or like another record,
    would replace it in the run; the run refuses it and names it."""
    recs = []
    for i, name in enumerate(names):
        path = tmp_path / f"{i}.fixture"
        path.write_text(f"name: {name}\nformula: catenoid\n")
        recs.append(load_fixture_file(path))
    cfg = pipeline.RunConfig(fixtures=["plane"], checks=["kaehler"], grid=5)
    with pytest.raises(ValueError, match=f"fixture '{names[-1]}'"):
        pipeline.run(cfg, extra_records=recs)


@pytest.mark.parametrize("names,checks,err", [
    ([], ["kaehler"], "no fixture selected"),
    (["plane"], [], "no check selected"),
    (["plane", "plane"], ["kaehler", "ppmc"], "'plane' is selected twice"),
])
def test_run_refuses_a_selection_that_runs_nothing_or_repeats(names, checks,
                                                              err):
    """An empty run would report nothing and a repeated fixture would
    run twice under one report node; both are refused before any check
    runs."""
    cfg = pipeline.RunConfig(fixtures=names, checks=checks, grid=5)
    with pytest.raises(ValueError, match=err):
        pipeline.run(cfg)


@pytest.mark.parametrize("formula,status", [("sphere", pipeline.PASS),
                                            ("catenoid", pipeline.SKIPPED)])
def test_psi_runs_where_isotropy_computes_without_ledger_flags(formula,
                                                               status):
    rec = FixtureRecord(name=f"unflagged-{formula}",
                        immersion=get_immersion(formula),
                        flags={f: None for f in FLAG_NAMES})
    cfg = pipeline.RunConfig(fixtures=[], checks=["kaehler", "psi"],
                             grid=5)
    rep = pipeline.run(cfg, extra_records=[rec])
    assert [r.status for r in rep.results] == [pipeline.PASS, status]


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


def test_thresholds_come_from_the_check_table():
    rows = {c.name: c for c in pipeline.TABLE}
    assert all(type(c.threshold) is float for c in pipeline.TABLE)
    cfg = pipeline.RunConfig(fixtures=["sphere", "veronese"], grid=5)
    results = pipeline.run(cfg).results
    assert {r.check for r in results} == set(rows)  # every row was run
    assert all(r.threshold == rows[r.check].threshold for r in results)
    assert rows["jets"].threshold == 1e-6
    assert rows["grassmann"].threshold == 1e-10
    # every residual read from the jets in closed form is held to the
    # strict tier; eq4 alone takes central differences at step h
    assert pipeline.TIER1 == 1e-8 and pipeline.TIER2 == 1e-5
    assert {c.name for c in pipeline.TABLE if c.threshold == 1e-8} == \
        set(rows) - {"jets", "grassmann", "eq4"}
    assert {c.name for c in pipeline.TABLE if c.threshold == 1e-5} == \
        {"eq4"}


def test_render_tree_formats_scalars():
    text = report.render_tree({"a": 0.0, "b": True, "c": 2.0,
                               "d": {"e": 1.5e-9}, "f": np.inf,
                               "g": -np.inf, "h": np.nan})
    assert "a: 0" in text
    assert "b: true" in text
    assert "c: 2" in text
    assert "  e: 1.500000e-09" in text
    assert "f: inf" in text
    assert "g: -inf" in text
    assert "h: nan" in text


@pytest.mark.parametrize("residual,extras,culprit", [
    (0.0, {"frame_route": 0.0, "detail": np.nan}, "detail"),
    (np.nan, {"detail": 1.0}, "residual"),
])
def test_a_nan_reads_as_error(monkeypatch, residual, extras, culprit):
    # a NaN is below no threshold and above none: it is neither PASS
    # nor FAIL
    monkeypatch.setitem(pipeline.CHECKS, "ppmc",
                        lambda ctx: (residual, dict(extras)))
    rep = _subset_run(["plane"], ["kaehler", "ppmc"])
    res = rep.results[-1]
    assert res.status == pipeline.ERROR
    assert res.message == f"NaN in {culprit}"
    assert res.mismatch
    text = report.render_report(rep)
    assert f"{culprit}: nan" in text
    assert f"note: NaN in {culprit}" in text


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
    # one factored metric per geometry (its Cholesky factor gives the
    # inverse): the checks read the geometry's g, Gamma and tangent
    # projector instead of rebuilding them
    factorisations = []
    inverse = kaehler.hermitian_inverse

    def spy(a):
        factorisations.append(a.shape)
        return inverse(a)

    monkeypatch.setattr(kaehler, "hermitian_inverse", spy)
    rep = _subset_run(["catenoid", "veronese", "product-spheres"],
                      ["kaehler", "grassmann"])
    assert [r.status for r in rep.results] == [pipeline.PASS] * 6
    assert len(factorisations) == len(geometry_calls) == 3


# A NaN in a fold's input must reach the runner's guard: Python's max()
# keeps its first argument against a NaN, so a fold with it reads the
# other terms and can PASS.

def _nan_run(fixture, check):
    with np.errstate(invalid="ignore"):
        rep = pipeline.run(pipeline.RunConfig(
            fixtures=[fixture], checks=["kaehler", check], grid=5))
    return next(r for r in rep.results if r.check == check)


def _edit_geometry(monkeypatch, edit):
    build = forms.compute_geometry

    def patched(imm, pts):
        geom = build(imm, pts)
        edit(geom)
        return geom

    monkeypatch.setattr(forms, "compute_geometry", patched)


def _edit_bundles(monkeypatch, edit):
    build = gaussmaps.projector_derivatives

    def patched(geom):
        bun = build(geom)
        edit(bun)
        return bun

    monkeypatch.setattr(gaussmaps, "projector_derivatives", patched)


def test_nan_in_a_bundle_derivative_reads_as_isotropy_error(monkeypatch):
    # N° is the second of the two parallelity terms
    def edit(bun):
        bun.No.dP[0, 0, 0, 0] = np.nan
    _edit_bundles(monkeypatch, edit)
    res = _nan_run("veronese", "isotropy")
    assert res.status == pipeline.ERROR
    assert "parallelity" in res.message


def test_nan_in_a_late_projector_pair_reads_as_isotropy_error(monkeypatch):
    # N'' = conj N' is formed inside the residual pass, so a NaN in P_N'
    # reaches the orthogonality pairs of N'' as well as the first
    def edit(bun):
        bun.Np.P[0, 0, 0] = np.nan
    _edit_bundles(monkeypatch, edit)
    res = _nan_run("veronese", "isotropy")
    assert res.status == pipeline.ERROR
    assert "orthogonality" in res.message


@pytest.mark.parametrize("field,index,term", [
    ("R", (0, 0, 1, 0, 1), "gauss"),      # i < j, k < l
    ("RN", (0, 0, 1, 0, 1), "ricci"),     # frame pair a < b
])
def test_nan_in_a_curvature_reads_as_structure_equation_error(
        monkeypatch, field, index, term):
    def edit(geom):
        T = getattr(geom, field).copy()
        T[index] = np.nan
        setattr(geom, field, T)
    _edit_geometry(monkeypatch, edit)
    res = _nan_run("veronese", "structure-equations")
    assert res.status == pipeline.ERROR
    assert term in res.message


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("fixture", ["sphere", "veronese", "cylinder"])
def test_non_finite_alpha_reads_as_sphere_reduction_error(monkeypatch,
                                                            fixture, value):
    # a NaN in eta compares false with the tangency bound, and an inf
    # makes the bound inf; neither may let the reduction through to
    # read "not spherical"
    def edit(geom):
        geom.alpha[0, 0, 0, 0] = value
    _edit_geometry(monkeypatch, edit)
    with np.errstate(invalid="ignore"):
        rep = pipeline.run(pipeline.RunConfig(
            fixtures=[fixture],
            checks=["kaehler", "sphere-reduction", "section"], grid=5))
    for res in rep.results[1:]:
        assert res.status == pipeline.ERROR
        assert "eta is not normal or not finite" in res.message


def test_nan_in_the_second_jet_reads_as_closedness_error(monkeypatch):
    # d2[3, 3] enters only the pairs (i, 3), the last three of six
    def edit(geom):
        geom.jet.d2[0, 3, 3, 0] = np.nan
    _edit_geometry(monkeypatch, edit)
    res = _nan_run("product-spheres", "closedness")
    assert res.status == pipeline.ERROR
    assert "NaN in residual" in res.message


def test_nan_in_one_lift_grading_direction_is_an_error(monkeypatch):
    # d xi = -2 Im dP_tau' enters the one product: a NaN in the
    # imaginary part of one entry along the last chart direction
    def edit(bun):
        bun.taup.dP[0, -1, 0, 1] += complex(0.0, np.nan)
    _edit_bundles(monkeypatch, edit)
    res = _nan_run("veronese", "lift-grading")
    assert res.status == pipeline.ERROR
    assert "NaN in residual" in res.message


def _replaced(value, key):
    """value with a NaN at key: a position of a tuple, an entry of a
    dict or an index of an array."""
    if isinstance(value, tuple):
        return value[:key] + (np.nan,) + value[key + 1:]
    if isinstance(value, dict):
        return {**value, key: np.nan}
    out = value.copy()
    out[key] = np.nan
    return out


def _psi_nan(key):
    return lambda out: (_replaced(out[0], key), out[1])


# (check, fixture, owner, name, edit of the value it returns):
# one case per sub-residual of every body that folds several
SUB_RESIDUAL_NANS = [
    *(("kaehler", "veronese", kaehler, "kaehler_residual",
       functools.partial(_replaced, key=k)) for k in range(2)),
    ("jets", "veronese", pipeline, "convergence_order",
     lambda order: np.nan),
    *(("grassmann", "veronese", gaussmaps, "grassmann_invariants",
       functools.partial(_replaced, key=k)) for k in range(3)),
    *(("structure-equations", "veronese", family,
       "structure_equation_residuals",
       functools.partial(_replaced, key=(1, k))) for k in range(3)),
    ("half-isotropy", "veronese", gaussmaps, "half_isotropy_residual",
     lambda t1: np.nan),
    ("half-isotropy", "veronese", forms, "ppmc_residual",
     lambda ppmc: np.nan),
    *(("isotropy", "veronese", gaussmaps.Bundles, "residuals",
       functools.partial(_replaced, key=k))
      for k in ("orthogonality", "parallelity N'", "parallelity N°")),
    *(("chain", "veronese", gaussmaps.Bundles, "residuals",
       functools.partial(_replaced, key=k)) for k in gaussmaps.CHAIN),
    *(("section", "veronese", gaussmaps, "gauss_section_check",
       functools.partial(_replaced, key=k)) for k in range(3)),
    *(("psi", "veronese", family, "build_psi", _psi_nan(key))
      for key in ((0, 0), (0, 1), (-1, 2))),
]


def _nan_in(monkeypatch, owner, name, edit):
    """owner.name, a function of a module or a cached property of a
    class, with edit applied to every value it returns."""
    call = getattr(owner, name)
    if isinstance(call, functools.cached_property):
        monkeypatch.setattr(owner, name,
                            property(lambda self: edit(call.func(self))))
    else:
        monkeypatch.setattr(owner, name, lambda *args: edit(call(*args)))


@pytest.mark.parametrize(
    "check,fixture,owner,name,edit", SUB_RESIDUAL_NANS,
    ids=[f"{c[0]}-{[d[0] for d in SUB_RESIDUAL_NANS[:i]].count(c[0])}"
         for i, c in enumerate(SUB_RESIDUAL_NANS)])
def test_a_nan_in_any_sub_residual_is_the_residual(monkeypatch, check,
                                                    fixture, owner, name,
                                                    edit):
    """Each body folds its sub-residuals with np.max, so a NaN in any
    one of them, first or not, is the reported residual."""
    _nan_in(monkeypatch, owner, name, edit)
    res = _nan_run(fixture, check)
    assert res.status == pipeline.ERROR
    assert np.isnan(res.residual)


def test_a_nan_in_the_isotropy_parallelity_is_an_error_of_psi(monkeypatch):
    # psi's split gate folds the isotropy residuals like the isotropy
    # body, and a NaN fold raises there rather than skipping psi
    _nan_in(monkeypatch, gaussmaps.Bundles, "residuals",
            functools.partial(_replaced, key="parallelity N°"))
    res = _nan_run("veronese", "psi")
    assert res.status == pipeline.ERROR
    assert res.message == "ValueError: NaN in the isotropy decomposition"
    assert res.mismatch


def test_one_orthogonality_entry_gates_isotropy_and_psi(monkeypatch):
    """The isotropy row and psi's split gate read the one
    orthogonality entry of the bundles' table: a failing value there
    fails the one and skips the other in the same run."""
    _nan_in(monkeypatch, gaussmaps.Bundles, "residuals",
            lambda res: {**res, "orthogonality": 1.0})
    rep = pipeline.run(pipeline.RunConfig(
        fixtures=["veronese"], checks=["kaehler", "isotropy", "psi"],
        grid=5))
    by = {r.check: r for r in rep.results}
    assert by["isotropy"].status == pipeline.FAIL
    assert by["isotropy"].extras["orthogonality"] == 1.0
    assert by["psi"].status == pipeline.SKIPPED


# The section check runs where the immersion is spherical, as the
# sphere reduction computes it, and sphere-reduction's kappa guard takes
# the tolerance that decides it, so the ledger's "spherical" flag is
# checked by one row.

def test_a_wrong_spherical_ledger_mismatches_on_sphere_reduction_only():
    cylinder = get_fixture("cylinder")
    rec = dataclasses.replace(cylinder, name="spherical-cylinder",
                              flags={**cylinder.flags, "spherical": True})
    rep = pipeline.run(pipeline.RunConfig(fixtures=[]),
                       extra_records=[rec])
    assert [r.check for r in rep.mismatches] == ["sphere-reduction"]
    status = {r.check: r.status for r in rep.results}
    assert status["sphere-reduction"] == pipeline.FAIL
    assert status["section"] == pipeline.SKIPPED


def test_sphere_reduction_reads_a_small_kappa_as_no_sphere(monkeypatch):
    """kappa = 1e-7 lies above TIER1 but within forms.SPHERE_TOL, where
    the reduction finds no sphere: sphere-reduction reads inf and FAILs
    even with A_eta = kappa I exactly."""
    G, n = 81, 3
    mc = forms.MeanCurvatureData(
        eta=np.zeros((G, n)), kappa=1e-7, off_identity=0.0, center=None,
        center_spread=np.inf, radius=None, radius_spread=np.inf,
        spherical=False)
    monkeypatch.setattr(forms, "mean_curvature_and_sphere_reduction",
                        lambda geom: mc)
    rep = pipeline.run(pipeline.RunConfig(
        fixtures=["plane"], checks=["kaehler", "sphere-reduction",
                                    "section"]))
    _, sphere, section = rep.results
    assert sphere.status == pipeline.FAIL and sphere.residual == np.inf
    assert section.status == pipeline.SKIPPED
    assert rep.mismatches == []


# A NaN in the jets must stop at the regularity gate of both metric
# routes with the chart point it sits at, not reach an SVD.

def _nan_catenoid(index):
    """The catenoid with a NaN in d1 at one grid point of every jet call."""
    def edit(jet, order):
        d1 = jet.d1.copy()
        d1[index, 0, 0] = np.nan
        return dataclasses.replace(jet, d1=d1)

    return _with_jets("catenoid", "nan-catenoid", edit)


def _not_finite_at(pts, index):
    where = ", ".join(f"{x:g}" for x in pts[index])
    return re.escape(f"induced metric not finite at chart point ({where}) "
                     f"(grid point {index})")


def test_geometry_names_the_chart_point_of_a_nan_metric():
    imm = _nan_catenoid(7).immersion
    pts = imm.grid(5, margin=0.1)
    with pytest.raises(ValueError, match=_not_finite_at(pts, 7)):
        forms.compute_geometry(imm, pts)
    # eq4's route gates its stacked shifted grids the same way
    geom = dataclasses.replace(
        forms.compute_geometry(get_immersion("catenoid"), pts), imm=imm)
    h = 1e-4
    shifted = pts + np.stack([h * np.eye(2), -h * np.eye(2)],
                             axis=1)[:, :, None]
    with pytest.raises(ValueError,
                       match=_not_finite_at(shifted.reshape(-1, 2), 7)):
        gaussmaps.fd_tangent_projector_derivatives(geom, h)


def test_nan_in_the_jets_reads_as_an_error_naming_the_point():
    rec = _nan_catenoid(3)
    cfg = pipeline.RunConfig(fixtures=[], checks=["kaehler"], grid=5)
    (res,) = pipeline.run(cfg, extra_records=[rec]).results
    assert res.status == pipeline.ERROR
    pts = pipeline.FixtureContext(rec, cfg).pts
    assert re.fullmatch("ValueError: " + _not_finite_at(pts, 3),
                        res.message)
