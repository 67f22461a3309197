"""Sensitivity controls: corrupted immersions that a check must FAIL,
next to the checks the same immersion must still pass."""

import dataclasses

import numpy as np

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
