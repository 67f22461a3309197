"""The geometry pass, the family integration, the sublemma, the
(p,q)-type residuals and the bundle layer call no index-loop np.einsum,
and the first two no per-point np.linalg.svd: their contractions are
batched `@` products and the rank test is certified from g and g^-1.
Neither the family path nor a full verify of a surface in R^3 forms a
normal frame (np.linalg.qr): only R^N of a normal bundle of rank >= 2
reads it.  A full verify computes ppmc once per fixture."""

import numpy as np
import pytest

from plurimean import family, flags, forms, gaussmaps, kaehler, pipeline
from plurimean.fixtures import get_immersion, registry


def _spy(monkeypatch, targets):
    """Names of the calls to the (module, name) targets made in the test."""
    calls = []
    for module, name in targets:
        def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def hot_calls(monkeypatch):
    """Names of the np.einsum and np.linalg.svd calls made in the test."""
    return _spy(monkeypatch, ((np, "einsum"), (np.linalg, "svd")))


@pytest.fixture
def qr_calls(monkeypatch):
    """Names of the np.linalg.qr calls made in the test."""
    return _spy(monkeypatch, ((np.linalg, "qr"),))


def test_geometry_calls_no_einsum_and_no_svd(hot_calls):
    cfg = pipeline.RunConfig()
    for rec in registry():
        pts = pipeline.FixtureContext(rec, cfg).pts
        forms.compute_geometry(rec.immersion, pts)
    catenoid = get_immersion("catenoid")
    forms.compute_geometry(catenoid, catenoid.grid(201))
    assert hot_calls == []


def test_family_integration_calls_no_einsum_and_no_svd(hot_calls):
    family.integrate_family(get_immersion("catenoid"), np.pi / 2,
                            per_axis=201)
    assert hot_calls == []


def test_family_path_forms_no_normal_frame(qr_calls):
    member = family.integrate_family(get_immersion("catenoid"), np.pi / 2,
                                     per_axis=201)
    family.structure_equation_residuals(member.geom, family.THETA_SWEEP)
    assert qr_calls == []


def test_verify_of_a_normal_line_forms_no_normal_frame(qr_calls):
    names = [r.name for r in registry()
             if r.immersion.ambient_dim - r.immersion.chart_dim == 1]
    assert len(names) == 8
    rep = pipeline.run(pipeline.RunConfig(fixtures=names))
    assert rep.mismatches == []
    assert qr_calls == []


def test_structure_sweep_takes_shape_operators_from_kaehler(monkeypatch):
    """The sweep's Ricci term reads the Weingarten maps of the parts of
    alpha_theta from kaehler, and only where the normal bundle has rank
    >= 2: R^N of every form on a normal line is 0."""
    cfg = pipeline.RunConfig()
    geoms = {rec.name: pipeline.FixtureContext(rec, cfg).geom
             for rec in registry()}
    for geom in geoms.values():
        geom.RN
    calls = _spy(monkeypatch, ((kaehler, "shape_operators"),))
    callers = set()
    for name, geom in geoms.items():
        before = len(calls)
        family.structure_equation_residuals(geom, family.THETA_SWEEP)
        if len(calls) > before:
            callers.add(name)
    assert len(geoms) == 11
    assert callers == {"holomorphic-curve", "product-spheres", "veronese"}


def test_sublemma_calls_no_einsum(monkeypatch):
    cfg = pipeline.RunConfig()
    geoms = [pipeline.FixtureContext(rec, cfg).geom for rec in registry()]
    for geom in geoms:
        geom.R
    calls = _spy(monkeypatch, ((np, "einsum"),))
    for geom in geoms:
        kaehler.sublemma_residual(geom)
    assert calls == []


def test_form_type_residuals_call_no_einsum(monkeypatch):
    """ppmc, eq2, the cross-factor identities and the Kaehler curvature
    identity split forms into (p,q)-types by chartcalc's one-product
    contractions (form_parts, contract_slots, kron) on every registry
    fixture."""
    cfg = pipeline.RunConfig()
    geoms = [pipeline.FixtureContext(rec, cfg).geom for rec in registry()]
    for geom in geoms:
        geom.R
    rng = np.random.default_rng(23)
    calls = _spy(monkeypatch, ((np, "einsum"),))
    for geom in geoms:
        x1, x2 = rng.standard_normal((2, geom.jet.chart_dim))
        y1, y2 = x1 + 1j * x2, x2 - 1j * x1
        forms.ppmc_residual(geom)
        forms.eq2_consistency_residual(geom)
        forms.cross_term_identity_residual(geom, x1, x2)
        forms.conjugate_cross_residual(geom, y1, y2)
        kaehler.kaehler_curvature_identity_residual(geom.R,
                                                    geom.imm.complex_dim)
    assert len(geoms) == 11
    assert calls == []


def test_bundle_layer_calls_no_einsum(monkeypatch):
    """The projector derivatives, the residuals read from them and the
    Grassmannian and eq4 residuals of P_T are batched `@` products on
    every registry fixture."""
    cfg = pipeline.RunConfig()
    ctxs = [pipeline.FixtureContext(rec, cfg) for rec in registry()
            if rec.flags["kaehler"]]
    fd_dP_T = [gaussmaps.fd_tangent_projector_derivatives(ctx.geom, cfg.h)
               for ctx in ctxs]
    for ctx in ctxs:
        ctx.mean_curvature   # built by forms, before the spy
    calls = _spy(monkeypatch, ((np, "einsum"),))
    for ctx, dP_T in zip(ctxs, fd_dP_T):
        geom = ctx.geom
        gaussmaps.grassmann_invariants(geom.P_T, geom.jet.chart_dim)
        gaussmaps.dgauss_check(geom, dP_T)
        bun = gaussmaps.projector_derivatives(geom)
        gaussmaps.superhorizontality_residual(bun)
        gaussmaps.holomorphicity_residuals(geom, bun)
        gaussmaps.half_isotropy_residual(geom, bun)
        flags.lift_grading_residual(bun)
        gaussmaps.isotropy_decomposition(bun)
        gaussmaps.differential_chain_residuals(geom, bun)
        if ctx.mean_curvature.spherical:
            gaussmaps.gauss_section_check(geom, bun, ctx.mean_curvature)
    assert len(ctxs) == 10
    assert calls == []


def test_verify_computes_ppmc_once_per_fixture(monkeypatch):
    """The ppmc check and half-isotropy's ppmc term read one value, the
    fixture context's ppmc layer."""
    calls = _spy(monkeypatch, ((forms, "ppmc_residual"),))
    names = ["veronese", "cylinder"]
    rep = pipeline.run(pipeline.RunConfig(fixtures=names))
    result = {(r.fixture, r.check): r for r in rep.results}
    assert calls == ["ppmc_residual"] * len(names)
    for name in names:
        assert (result[name, "half-isotropy"].extras["ppmc"]
                == result[name, "ppmc"].residual)
