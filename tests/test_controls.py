"""Sensitivity controls: corrupted immersions that a check must FAIL,
next to the checks the same immersion must still pass."""

import dataclasses
import functools
from typing import NamedTuple

import numpy as np
import pytest

from plurimean import pipeline
from plurimean.fixtures import (FLAG_NAMES, FixtureRecord, get_fixture,
                                immersion)


def _with_jets(name, label, edit):
    """The fixture `name` renamed `label`, each jet it computes passed
    through edit(jet, order); its values stay exact."""
    rec = get_fixture(name)
    jet_fn = rec.immersion.jet_fn
    imm = dataclasses.replace(
        rec.immersion, name=label,
        jet_fn=lambda pts, order: edit(jet_fn(pts, order), order))
    return dataclasses.replace(rec, name=label, immersion=imm)


def _d2_perturbed(name, eps=1e-2):
    """The fixture with eps f added to every second derivative of its
    jets of order 2 and 3; its values and order-1 jets stay exact.  On
    the unit sphere f is its own unit normal, so the metric and the
    Christoffel symbols stay exact and only alpha moves."""
    return _with_jets(name, f"{name}-d2-perturbed", lambda jet, order: (
        jet if order < 2 else dataclasses.replace(
            jet, d2=jet.d2 + eps * jet.value[:, None, None, :])))


def _d3_perturbed(name, slots, eps=1e-2):
    """The fixture with eps added to the third derivatives d3[i, j, k]
    of its order-3 jets for each (i, j, k) in slots; its values and
    lower jets stay exact."""
    def edit(jet, order):
        if order < 3:
            return jet
        d3 = jet.d3.copy()
        for i, j, k in slots:
            d3[:, i, j, k] += eps
        return dataclasses.replace(jet, d3=d3)

    label = "-".join([name, "d3"] + ["".join(map(str, s)) for s in slots])
    return _with_jets(name, label, edit)


def _d1_scaled(name, factor=1.001):
    """The fixture with the first derivatives of its jets scaled by
    factor; its values stay exact."""
    return _with_jets(name, f"{name}-d1-scaled", lambda jet, order:
                      dataclasses.replace(jet, d1=factor * jet.d1))


def _formula_record(name, formula, domain, flags, grid_per_axis=None):
    """A FixtureRecord of a chart formula, evaluated through jets."""
    return FixtureRecord(name, immersion(name, formula, domain), flags,
                         grid_per_axis)


def test_eq4_fails_on_perturbed_second_derivatives():
    rec = _d2_perturbed("sphere")
    imm, exact = rec.immersion, get_fixture("sphere").immersion
    pts = imm.grid(5)
    assert np.array_equal(imm.jet_fn(pts, 1).d1, exact.jet_fn(pts, 3).d1)
    # eq4 holds alpha, read from the perturbed d2, against the central
    # differences of the exact first derivatives
    cfg = pipeline.RunConfig(fixtures=["sphere"],
                             checks=["kaehler", "jets", "grassmann", "eq4"])
    rep = pipeline.run(cfg, extra_records=[rec])
    status = {(r.fixture, r.check): r.status for r in rep.results}
    assert status == {
        ("sphere", "kaehler"): pipeline.PASS,
        ("sphere", "jets"): pipeline.PASS,
        ("sphere", "grassmann"): pipeline.PASS,
        ("sphere", "eq4"): pipeline.PASS,
        (rec.name, "kaehler"): pipeline.PASS,
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


def test_jets_fails_when_the_first_derivatives_leave_the_values():
    """The catenoid with its jets' d1 scaled by 1.001 and its values
    exact: the jets check, which holds d1 against central differences
    of the values, FAILs, and eq4, which holds alpha from the jets
    against those of d1, reads 1e-3.  The checks that read the jets
    alone still pass: 1.001 d1 with the exact d2 and d3 is still a
    Kaehler, pluriminimal chart to within the tiers."""
    bad = _d1_scaled("catenoid")
    checks = ["kaehler", "jets", "eq4", "ppmc", "pluriminimal",
              "structure-equations", "closedness"]
    rep = pipeline.run(pipeline.RunConfig(fixtures=[], checks=checks),
                       extra_records=[bad])
    status = {r.check: r.status for r in rep.results}
    assert status == {**{c: pipeline.PASS for c in checks},
                      "jets": pipeline.FAIL,
                      "eq4": pipeline.INCONCLUSIVE}


def _inverted_holomorphic_curve(u, v):
    """x / |x|^2 for x = (z + 1, (z + 1)^2) in C^2 = R^4, z = u + iv:
    the inversion of a holomorphic curve, conformal, so still Kaehler,
    but neither ppmc nor pluriminimal."""
    a, b = u + 1.0, v
    x = [a, b, a**2 - b**2, 2 * a * b]
    r2 = sum(c**2 for c in x)
    return [c / r2 for c in x]


def _inverted_holomorphic_curve_record():
    flags = {f: None for f in FLAG_NAMES}
    flags.update(kaehler=True, ppmc=False, pluriminimal=False)
    return _formula_record("inverted-holomorphic-curve",
                           _inverted_holomorphic_curve,
                           [(-0.5, 0.5), (-0.5, 0.5)], flags)


def test_sublemma_fails_on_an_inverted_holomorphic_curve():
    """No registry fixture fails the sublemma; this one does, next to
    the Kaehler and T' x T' checks it passes."""
    rec = _inverted_holomorphic_curve_record()
    checks = ["kaehler", "ppmc", "rn-tprime", "sublemma", "closedness"]
    rep = pipeline.run(pipeline.RunConfig(fixtures=[], checks=checks),
                       extra_records=[rec])
    status = {r.check: r.status for r in rep.results}
    assert status == {"kaehler": pipeline.PASS, "ppmc": pipeline.FAIL,
                      "rn-tprime": pipeline.PASS,
                      "sublemma": pipeline.FAIL,
                      "closedness": pipeline.FAIL}
    residual = {r.check: r.residual for r in rep.results}
    assert residual["sublemma"] == pytest.approx(4.399882821413984,
                                                 rel=1e-12)
    assert rep.mismatches == []


def _z1z2_graph(u1, v1, u2, v2):
    """The graph of w = z1 z2 in C^3 = R^6, z_k = u_k + i v_k."""
    return [u1, v1, u2, v2, u1 * u2 - v1 * v2, u1 * v2 + v1 * u2]


def _z1z2_record():
    return _formula_record("z1z2-graph", _z1z2_graph, [(-0.5, 0.5)] * 4,
                           {f: f != "spherical" for f in FLAG_NAMES},
                           grid_per_axis=5)


def test_complex_hypersurface_has_curved_normal_bundle_flat_on_t_prime():
    """A complex hypersurface (m = 2, n = 6) whose normal curvature is
    not 0 (max |R^N| = 2 at the origin) but vanishes on T' x T': every
    check the ledger asks for passes, and the sphere reduction FAILs
    since the mean curvature is 0."""
    rec = _z1z2_record()
    cfg = pipeline.RunConfig(fixtures=[])
    rep = pipeline.run(cfg, extra_records=[rec])
    status = {r.check: r.status for r in rep.results}
    assert len(status) == len(pipeline.TABLE)
    assert status == {**{c.name: pipeline.PASS for c in pipeline.TABLE},
                      "sphere-reduction": pipeline.FAIL,
                      "section": pipeline.SKIPPED}
    assert rep.mismatches == []
    residual = {r.check: r.residual for r in rep.results}
    assert residual["sphere-reduction"] == np.inf
    RN = pipeline.FixtureContext(rec, cfg).geom.RN
    assert np.max(np.abs(RN)) == pytest.approx(2.0, rel=1e-12)
    assert residual["rn-tprime"] < 1e-15


def _inverted_product_spheres(u1, v1, u2, v2):
    """(x - c) / |x - c|^2 for x the product of two unit spheres in
    R^6, each in the stereographic chart
    (u, v) -> (2u, 2v, u^2 + v^2 - 1) / (1 + u^2 + v^2), and the centre
    c = (0, 0, -2, 0, 0, 0) off the product's centre."""
    x = []
    for u, v in ((u1, v1), (u2, v2)):
        iw = 1 / (1 + u**2 + v**2)
        x += [2 * u * iw, 2 * v * iw, (u**2 + v**2 - 1) * iw]
    x[2] = x[2] + 2.0
    r2 = sum(c**2 for c in x)
    return [c / r2 for c in x]


def _inverted_product_spheres_record():
    flags = {f: None for f in FLAG_NAMES}
    flags.update(kaehler=False)
    return _formula_record("inverted-product-spheres",
                           _inverted_product_spheres, [(-0.6, 0.6)] * 4,
                           flags, grid_per_axis=5)


def test_kaehler_fails_on_off_centre_inverted_product_spheres():
    """The inversion keeps the metric conformal, so J stays orthogonal,
    but at m = 2 a conformal factor that is not constant breaks the
    parallelity of J: kaehler FAILs through parallelity alone, and every
    other check is SKIPPED.  The centred inversion x / |x|^2 cannot
    serve: product-spheres lies on |x|^2 = 2, where it is the dilation
    x / 2, which stays Kaehler."""
    rec = _inverted_product_spheres_record()
    rep = pipeline.run(pipeline.RunConfig(fixtures=[]),
                       extra_records=[rec])
    status = {r.check: r.status for r in rep.results}
    assert status == {**{c.name: pipeline.SKIPPED for c in pipeline.TABLE},
                      "kaehler": pipeline.FAIL}
    assert rep.mismatches == []
    kaehler = rep.results[0]
    assert kaehler.residual == pytest.approx(2.3080484294138888, rel=1e-12)
    assert kaehler.extras["parallelity"] == kaehler.residual
    assert kaehler.extras["orthogonality"] < 1e-15


CONTROLS = {
    "sphere-d2-perturbed": lambda: _d2_perturbed("sphere"),
    **{f"{name}-d3-{label}": functools.partial(_d3_perturbed, name, slots)
       for name in ("sphere", "catenoid")
       for label, slots in (("010", [(0, 1, 0)]),
                            ("symmetric", [(0, 0, 1), (0, 1, 0),
                                           (1, 0, 0)]))},
    "catenoid-d1-scaled": lambda: _d1_scaled("catenoid"),
    "inverted-holomorphic-curve": _inverted_holomorphic_curve_record,
    "z1z2-graph": _z1z2_record,
    "inverted-product-spheres": _inverted_product_spheres_record,
}


@pytest.mark.parametrize("control", CONTROLS)
def test_curvature_is_exactly_antisymmetric_on_the_controls(control):
    """The structure sweep's Gauss leg reads R on i < j, k < l only:
    each control's R, on the grid verify builds, holds both
    antisymmetries bit for bit, as the registry's does
    (test_kaehler.py)."""
    R = pipeline.FixtureContext(CONTROLS[control](),
                                pipeline.RunConfig()).geom.R
    assert np.array_equal(R, -R.swapaxes(1, 2))
    assert np.array_equal(R, -R.swapaxes(3, 4))


class _CannotFail(NamedTuple):
    reason: str   # why no admitted record can make the row FAIL


# each TABLE row -> the registry fixture (a name) or the control (a
# builder above) on which it FAILs, or why nothing can make it FAIL
CAN_FAIL = {
    "kaehler": "skewed-plane", "ppmc": "ellipsoid",
    "gauss-levi": "ellipsoid", "structure-equations": "ellipsoid",
    "pluriminimal": "sphere", "closedness": "sphere",
    "half-isotropy": "cylinder", "isotropy": "catenoid",
    "chain": "catenoid", "sphere-reduction": "plane",
    "jets": lambda: _d1_scaled("catenoid"),
    "eq4": lambda: _d2_perturbed("sphere"),
    "codazzi": lambda: _d3_perturbed("sphere", [(0, 1, 0)]),
    "sublemma": _inverted_holomorphic_curve_record,
    "grassmann": _CannotFail("P_T = df g^-1 df^T: a rank-2m projector"),
    "superhorizontality": _CannotFail("it holds on every Kaehler chart"),
    "lift-grading": _CannotFail("superhorizontality in orbit coordinates"),
    "psi": _CannotFail("it runs only where its isotropy split holds"),
    "section": _CannotFail("it runs only where f lies on a sphere about c: "
                           "f - c is normal, of constant length, and "
                           "df(T') = tau'"),
    "rn-tprime": _CannotFail(
        "0 at m = 1; no Kaehler, non-ppmc, m >= 2 immersion without "
        "product structure is known in closed form (Dajczer & Gromoll "
        "1985), and inversion breaks the Kaehler condition at m = 2"),
}


def test_every_check_row_can_fail_or_says_why_not():
    assert CAN_FAIL.keys() == {c.name for c in pipeline.TABLE}
    controls = {c: how() for c, how in CAN_FAIL.items() if callable(how)}
    # only the controls' own checks run on them
    cfg = pipeline.RunConfig(fixtures=[], checks=list(controls))
    reps = [pipeline.run(pipeline.RunConfig()),
            pipeline.run(cfg, extra_records=list(controls.values()))]
    status = {(r.fixture, r.check): r.status
              for rep in reps for r in rep.results}
    for check, how in CAN_FAIL.items():
        if not isinstance(how, _CannotFail):
            fixture = controls[check].name if callable(how) else how
            assert status[fixture, check] == pipeline.FAIL, (check, fixture)
