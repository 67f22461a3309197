"""Second fundamental form, (p,q)-parts, mean curvature, sphere reduction."""

import numpy as np
import pytest

from plurimean import forms
from plurimean.chartcalc import contract_slots, form_parts, type_rows
from plurimean.fixtures import get_immersion, registry

ADMITTED = [r.name for r in registry() if r.flags["kaehler"]]


def _geom(name, per_axis=5):
    imm = get_immersion(name)
    return forms.compute_geometry(imm, imm.grid(per_axis, margin=0.05))


@pytest.mark.parametrize("name", ADMITTED)
def test_alpha_is_symmetric_and_normal_valued(name):
    geom = _geom(name)
    assert np.max(np.abs(geom.alpha
                         - geom.alpha.transpose(0, 2, 1, 3))) < 1e-12
    assert forms.normal_valued_residual(geom) < 1e-9


def test_sphere_alpha_equals_minus_metric_times_position():
    # independent oracle: on the unit sphere alpha(x,y) = -g(x,y) f
    geom = _geom("sphere")
    expected = -np.einsum("gij,gx->gijx", geom.g, geom.jet.value)
    assert np.max(np.abs(geom.alpha - expected)) < 1e-12


@pytest.mark.parametrize("name", ADMITTED)
def test_complex_parts_reassemble_alpha(name):
    geom = _geom(name)
    assert forms.eq2_consistency_residual(geom) < 1e-12
    # the three (p,q)-parts of form_parts sum to the complex-bilinear
    # alpha, and the (2,0)-part reads alpha20 on the (1,0) basis and 0
    # on (1,0) x (0,1); contract_slots takes real forms, so a20 =
    # (v - i w) / 2 is read through its real parts v and w
    G, d, _, n = geom.alpha.shape
    u, v, w = form_parts(geom.alpha)
    a20, a02 = 0.5 * (v - 1j * w), 0.5 * (v + 1j * w)
    for K, ref in zip(type_rows(geom.imm.complex_dim),
                      (geom.alpha20, 0.0)):
        got = 0.5 * (contract_slots(K, v) - 1j * contract_slots(K, w))
        assert np.max(np.abs(got - ref)) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        total = sum(np.kron(x, y) @ p.reshape(G, d * d, n)
                    for p in (a20, u, a02))
        assert np.allclose(total,
                           np.kron(x, y) @ geom.alpha.reshape(G, d * d, n),
                           atol=1e-10)


@pytest.mark.parametrize("name", ["sphere", "cylinder", "ellipsoid",
                                  "catenoid"])
def test_surface_pluri_mean_part_is_metric_times_mean_curvature(name):
    # for surfaces: (alpha(x,y) + alpha(Jx,Jy))/2 = g(x,y) eta
    geom = _geom(name)
    mc = forms.mean_curvature_and_sphere_reduction(geom)
    a11 = form_parts(geom.alpha)[0]
    expected = np.einsum("gij,gx->gijx", geom.g, mc.eta)
    assert np.max(np.abs(a11 - expected)) < 1e-9


@pytest.mark.parametrize("name", ["sphere", "cylinder", "veronese",
                                  "product-spheres", "standard-embedding"])
def test_extrinsic_symmetric_fixtures_have_parallel_alpha(name):
    geom = _geom(name)
    assert np.max(np.abs(geom.Dalpha)) < 1e-12
    assert forms.codazzi_residual(geom) < 1e-12


def test_ellipsoid_is_an_honest_negative_control():
    geom = _geom("ellipsoid")
    assert forms.ppmc_residual(geom) > 1e-2
    assert forms.pluriminimal_residual(geom) > 1e-2
    assert forms.codazzi_residual(geom) < 1e-10  # Codazzi always holds


@pytest.mark.parametrize("name,kappa,radius,center", [
    ("sphere", 1.0, 1.0, np.zeros(3)),
    ("standard-embedding", 0.5, np.sqrt(2.0), np.zeros(3)),
    ("product-spheres", 0.5, np.sqrt(2.0), np.zeros(6)),
    ("veronese", 1.5, np.sqrt(2.0 / 3.0),
     np.array([1 / 3, 1 / 3, 1 / 3, 0, 0, 0])),
])
def test_sphere_reduction_on_spherical_fixtures(name, kappa, radius, center):
    mc = forms.mean_curvature_and_sphere_reduction(_geom(name))
    assert mc.spherical
    assert mc.off_identity < 1e-9
    assert mc.kappa == pytest.approx(kappa, abs=1e-9)
    assert mc.radius == pytest.approx(radius, abs=1e-9)
    assert mc.radius_spread < 1e-9
    assert mc.center_spread < 1e-9
    assert np.max(np.abs(mc.center - center)) < 1e-9


@pytest.mark.parametrize("name", ["catenoid", "helicoid",
                                  "holomorphic-curve", "plane"])
def test_minimal_fixtures_are_not_spherical(name):
    mc = forms.mean_curvature_and_sphere_reduction(_geom(name))
    assert not mc.spherical
    assert np.max(np.abs(mc.eta)) < 1e-10  # minimal: eta = 0


def test_cross_term_identity_on_product_factors():
    # vectors from different factors of a product immersion: the norms of
    # the (1,1)- and (2,0)-parts of alpha agree on such pairs
    geom = _geom("product-spheres")
    rng = np.random.default_rng(42)
    for _ in range(50):
        x1 = np.concatenate([rng.standard_normal(2), np.zeros(2)])
        x2 = np.concatenate([np.zeros(2), rng.standard_normal(2)])
        assert forms.cross_term_identity_residual(geom, x1, x2) < 1e-9
        y1 = x1.astype(complex)
        y2 = x2 + 1j * (geom.imm.J @ x2)
        assert forms.conjugate_cross_residual(geom, y1, y2) < 1e-9


def test_cross_term_identity_fails_within_one_factor():
    geom = _geom("product-spheres")
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    # same-factor pair: alpha^{(1,1)}(x1,x1) != 0 while alpha^{(2,0)}
    # vanishes on each round-sphere factor
    assert forms.cross_term_identity_residual(geom, x1, x1) > 1e-2
