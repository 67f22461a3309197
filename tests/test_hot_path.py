"""The geometry pass and the family integration call no index-loop
np.einsum and no per-point np.linalg.svd: their contractions are batched
`@` products and their rank test is certified from g and g^-1."""

import numpy as np
import pytest

from plurimean import family, forms, pipeline
from plurimean.fixtures import get_immersion, registry


@pytest.fixture
def hot_calls(monkeypatch):
    """Names of the np.einsum and np.linalg.svd calls made in the test."""
    calls = []
    for module, name in ((np, "einsum"), (np.linalg, "svd")):
        def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


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
