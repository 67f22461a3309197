"""Sensitivity controls: corrupted immersions that a check must FAIL,
next to the checks the same immersion must still pass."""

import dataclasses

import numpy as np
import pytest

from plurimean import pipeline
from plurimean.fixtures import get_fixture


def _d2_perturbed(name, eps=1e-3):
    """The fixture with eps added to every second derivative of its
    jets of order 2 and 3; its values and order-1 jets stay exact."""
    rec = get_fixture(name)
    imm = rec.immersion

    def jet_fn(pts, order):
        jet = imm.jet_fn(pts, order)
        return jet if order < 2 else dataclasses.replace(jet,
                                                         d2=jet.d2 + eps)

    return dataclasses.replace(
        rec, name=f"{name}-d2-perturbed",
        immersion=dataclasses.replace(imm, name=f"{name}-d2-perturbed",
                                      jet_fn=jet_fn))


def _d3_perturbed(name, slots, eps=1e-2):
    """The fixture with eps added to the third derivatives d3[i, j, k]
    of its order-3 jets for each (i, j, k) in slots; its values and
    lower jets stay exact."""
    rec = get_fixture(name)
    imm = rec.immersion

    def jet_fn(pts, order):
        jet = imm.jet_fn(pts, order)
        if order < 3:
            return jet
        d3 = jet.d3.copy()
        for i, j, k in slots:
            d3[:, i, j, k] += eps
        return dataclasses.replace(jet, d3=d3)

    label = "-".join([name, "d3"] + ["".join(map(str, s)) for s in slots])
    return dataclasses.replace(
        rec, name=label,
        immersion=dataclasses.replace(imm, name=label, jet_fn=jet_fn))


def test_eq4_fails_on_perturbed_second_derivatives():
    rec = _d2_perturbed("sphere")
    imm, exact = rec.immersion, get_fixture("sphere").immersion
    pts = imm.grid(5)
    assert np.array_equal(imm.jet_fn(pts, 1).d1, exact.jet_fn(pts, 3).d1)
    # eq4 holds alpha, read from the perturbed d2, against the central
    # differences of the exact first derivatives; the kaehler check is
    # left out because the perturbed Christoffel symbols fail it
    cfg = pipeline.RunConfig(fixtures=["sphere"],
                             checks=["jets", "grassmann", "eq4"])
    rep = pipeline.run(cfg, extra_records=[rec])
    status = {(r.fixture, r.check): r.status for r in rep.results}
    assert status == {
        ("sphere", "jets"): pipeline.PASS,
        ("sphere", "grassmann"): pipeline.PASS,
        ("sphere", "eq4"): pipeline.PASS,
        (rec.name, "jets"): pipeline.PASS,
        (rec.name, "grassmann"): pipeline.PASS,
        (rec.name, "eq4"): pipeline.FAIL,
    }


@pytest.mark.parametrize("name", ["sphere", "catenoid"])
def test_codazzi_fails_on_one_asymmetric_third_derivative(name):
    """d3[0, 1, 0] alone breaks the symmetry of the third derivatives,
    which is what Codazzi reads (about 0.014 here); the checks that
    read only jets up to order 2 still pass.  Codazzi holds pointwise
    for any symmetric 3-jet, so the same perturbation in all three
    slots leaves it at round-off."""
    rec = _d3_perturbed(name, [(0, 1, 0)])
    symmetric = _d3_perturbed(name, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    checks = ["kaehler", "jets", "grassmann", "eq4", "codazzi"]
    cfg = pipeline.RunConfig(fixtures=[], checks=checks)
    rep = pipeline.run(cfg, extra_records=[rec, symmetric])
    status = {(r.fixture, r.check): r.status for r in rep.results}
    assert status == {**{(f.name, c): pipeline.PASS
                         for f in (rec, symmetric) for c in checks},
                      (rec.name, "codazzi"): pipeline.FAIL}
    codazzi = {r.fixture: r.residual for r in rep.results
               if r.check == "codazzi"}
    assert 5e-3 < codazzi[rec.name] < 5e-2
    assert codazzi[symmetric.name] < 1e-12
