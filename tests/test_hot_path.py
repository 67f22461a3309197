"""The geometry pass, the family integration and the sublemma call no
index-loop np.einsum, and the first two no per-point np.linalg.svd:
their contractions are batched `@` products and the rank test is
certified from g and g^-1.  Neither the family path nor a full verify
of a surface in R^3 forms a normal frame (np.linalg.qr): only R^N of a
normal bundle of rank >= 2 reads it."""

import numpy as np
import pytest

from plurimean import family, forms, kaehler, pipeline
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
