"""Associated family: rotated forms, structure equations, integration,
rigid matching, and the normal-bundle automorphism."""

import dataclasses

import numpy as np
import pytest

from plurimean import family, forms, gaussmaps, report
from plurimean.chartcalc import form_parts, standard_J
from plurimean.fixtures import get_immersion, registry
from test_einsum_references import rotate_form_ref
from test_forms import _geom

PPMC = [r.name for r in registry() if r.flags["ppmc"]]


@pytest.mark.parametrize("theta", family.THETA_SWEEP)
def test_rotation_is_orthogonal_and_periodic(theta):
    J = get_immersion("catenoid").J
    R = family.rotation(J, theta)
    assert np.allclose(R.T @ R, np.eye(2))
    assert np.allclose(family.rotation(J, theta + 2 * np.pi), R)


def _assert_parts_rebuild_rotation(form, J):
    """u + cos 2t v + sin 2t w = form(R_t ., R_t .) at every sweep angle,
    and the parts are the (p,q)-parts on the real basis:
    alpha_theta = e^{2it} a20 + a11 + e^{-2it} a02 with u = a11 and
    v - i w = 2 a20, the (p,q)-parts extended complex-bilinearly."""
    u, v, w = form_parts(form)
    for theta in family.THETA_SWEEP:
        rebuilt = u + np.cos(2 * theta) * v + np.sin(2 * theta) * w
        assert np.max(np.abs(rebuilt
                             - rotate_form_ref(form, J, theta))) < 1e-12
    Pp = 0.5 * (np.eye(J.shape[0]) - 1j * J)   # pi' on chart components
    Pq = Pp.conj()
    fc = form.astype(complex)
    a20 = np.einsum("ai,bj,...abx->...ijx", Pp, Pp, fc)
    a11 = (np.einsum("ai,bj,...abx->...ijx", Pp, Pq, fc)
           + np.einsum("ai,bj,...abx->...ijx", Pq, Pp, fc))
    assert np.max(np.abs(u - a11)) < 1e-12
    assert np.max(np.abs(v - 1j * w - 2 * a20)) < 1e-12


@pytest.mark.parametrize("name", [r.name for r in registry()])
def test_rotation_parts_rebuild_rotated_forms_on_fixtures(name):
    geom = _geom(name)
    _assert_parts_rebuild_rotation(geom.alpha, geom.imm.J)
    _assert_parts_rebuild_rotation(geom.Dalpha, geom.imm.J)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 6)])
def test_rotation_parts_rebuild_rotated_forms_on_random_forms(m, n):
    # neither symmetric nor of any type: the identity is linear algebra
    rng = np.random.default_rng(10 * m + n)
    d = 2 * m
    J = standard_J(m)
    _assert_parts_rebuild_rotation(rng.standard_normal((7, d, d, n)), J)
    _assert_parts_rebuild_rotation(rng.standard_normal((7, d, d, d, n)), J)


def test_rotation_by_pi_fixes_alpha():
    geom = _geom("veronese")
    G, d, _, n = geom.alpha.shape
    u, v, w = (family.rotation_parts(geom.imm.complex_dim)
               @ geom.alpha.reshape(G, 1, d * d, n)).transpose(1, 0, 2, 3)
    rot = u + np.cos(2 * np.pi) * v + np.sin(2 * np.pi) * w
    assert np.max(np.abs(rot.reshape(geom.alpha.shape)
                         - geom.alpha)) < 1e-12


@pytest.mark.parametrize("name", PPMC)
@pytest.mark.parametrize("theta", family.THETA_SWEEP)
def test_structure_equations_hold_on_ppmc_fixtures(name, theta):
    g, c, r = family.structure_equation_residuals(_geom(name), [theta])[0]
    assert g < 1e-10
    assert c < 1e-10
    assert r < 1e-10


def test_structure_equations_fail_on_ellipsoid():
    _, c, _ = family.structure_equation_residuals(_geom("ellipsoid"),
                                                  [np.pi / 4])[0]
    assert c > 1e-2


@pytest.mark.parametrize("name", ["catenoid", "helicoid",
                                  "holomorphic-curve", "plane"])
@pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 2, np.pi])
def test_closedness_on_pluriminimal_fixtures(name, theta):
    assert family.closedness_residual(_geom(name), theta) < 1e-10


def test_closedness_fails_for_nonminimal_surface():
    assert family.closedness_residual(_geom("sphere"), np.pi / 2) > 1e-2


def test_integration_at_theta_zero_recovers_catenoid():
    imm = get_immersion("catenoid")
    member = family.integrate_family(imm, 0.0, per_axis=21)
    target = imm.evaluate(member.pts)
    _, _, rms = family.rigid_match(member.values, target)
    assert rms < 1e-7  # O(h^4) quadrature error at a 21-point grid
    assert member.metric_deviation < 1e-12


def test_conjugate_surface_is_the_helicoid():
    cat = get_immersion("catenoid")
    member = family.integrate_family(cat, np.pi / 2, per_axis=41)
    target = get_immersion("helicoid").evaluate(member.pts)
    _, _, rms = family.rigid_match(member.values, target)
    assert rms < 1e-5
    assert member.metric_deviation < 1e-12


@pytest.mark.parametrize("theta", family.THETA_SWEEP[1:])
def test_family_members_are_isometric(theta):
    member = family.integrate_family(get_immersion("catenoid"), theta,
                                     per_axis=21)
    assert member.metric_deviation < 1e-5


def test_integration_rejects_non_closed_form():
    with pytest.raises(ValueError, match="not closed"):
        family.integrate_family(get_immersion("sphere"), np.pi / 2)


def test_integration_limited_to_surfaces():
    with pytest.raises(NotImplementedError):
        family.integrate_family(get_immersion("product-spheres"),
                                np.pi / 2)


@pytest.mark.parametrize("seed", range(10))
def test_rigid_match_recovers_random_motion(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((60, 3))
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if seed % 2:
        Q[:, 0] *= -1.0  # reflections are allowed
    t = rng.standard_normal(3)
    B = A @ Q.T + t
    Qh, th, rms = family.rigid_match(A, B)
    assert rms < 1e-12
    assert np.max(np.abs(Qh - Q)) < 1e-10
    assert np.max(np.abs(th - t)) < 1e-10


def test_rigid_match_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        family.rigid_match(np.zeros((4, 3)), np.zeros((5, 3)))


# ------------------------------------------------------------ mesh text

def mesh_text_ref(member):
    """The mesh written one line at a time."""
    V = member.values
    n = V.shape[1]
    rows, cols = member.shape
    out = []
    if n > 3:
        for p in V:
            out.append("# coords " + " ".join(f"{x:.12g}" for x in p)
                       + "\n")
    for p in V:
        xyz = p[:3] if n >= 3 else np.pad(p, (0, 3 - n))
        out.append(f"v {xyz[0]:.12g} {xyz[1]:.12g} {xyz[2]:.12g}\n")
    for i in range(rows - 1):
        for j in range(cols - 1):
            a = i * cols + j + 1
            b = a + 1
            c = a + cols
            d = c + 1
            out.append(f"f {a} {b} {d}\n")
            out.append(f"f {a} {d} {c}\n")
    return "".join(out)


@pytest.mark.parametrize("name", ["catenoid", "holomorphic-curve"])
def test_mesh_text_equals_line_loop(name):
    # 71 x 71 points: more vertex and face rows than one format chunk
    member = family.integrate_family(get_immersion(name), np.pi / 3,
                                     per_axis=71)
    assert report.mesh_text(member) == mesh_text_ref(member)


@pytest.mark.parametrize("shape,n", [((67, 65), 5), ((3, 7), 2)])
def test_mesh_text_equals_line_loop_on_non_square_grid(shape, n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal((shape[0] * shape[1], n))
    values *= 10.0 ** rng.integers(-20, 20, size=values.shape)
    values.flat[:4] = [0.0, -0.0, 1 / 3, 123456789012345.0]
    member = family.FamilyMember(theta=0.0, pts=None, shape=shape,
                                 values=values, metric_deviation=0.0,
                                 closedness=0.0, geom=None)
    assert report.mesh_text(member) == mesh_text_ref(member)


# ------------------------------------------------------------- psi_theta

def _psi_inputs(name, per_axis=5, margin=0.05):
    imm = get_immersion(name)
    pts = imm.grid(per_axis, margin=margin)
    geom = forms.compute_geometry(imm, pts)
    bun = gaussmaps.bundle_projectors(geom)
    return geom, bun


@pytest.mark.parametrize("name", ["veronese", "sphere",
                                  "product-spheres",
                                  "standard-embedding",
                                  "holomorphic-curve", "plane"])
@pytest.mark.parametrize("theta", family.THETA_SWEEP)
def test_psi_intertwines_rotated_forms(name, theta):
    geom, bun = _psi_inputs(name)
    eq8, unitarity, _ = family.build_psi(geom, bun, [theta])[0][0]
    assert eq8 < 1e-8
    assert unitarity < 1e-10


@pytest.mark.parametrize("name,dim", [
    ("veronese", 2), ("holomorphic-curve", 2), ("sphere", 0),
    ("product-spheres", 0), ("standard-embedding", 0),
])
def test_psi_halfturn_minus_one_eigenspace(name, dim):
    geom, bun = _psi_inputs(name)
    assert family.build_psi(geom, bun, [np.pi / 2])[1] == dim


@pytest.mark.parametrize("name", ["veronese", "standard-embedding"])
def test_psi_fullturn_is_identity_on_normal_bundle(name):
    geom, bun = _psi_inputs(name)
    assert family.build_psi(geom, bun, [np.pi])[0][0, 2] < 1e-12


def test_psi_standard_embedding_trivial_at_halfturn():
    # N' has rank 0, so the half-turn automorphism is the identity on N
    geom, bun = _psi_inputs("standard-embedding")
    assert family.build_psi(geom, bun, [np.pi / 2])[0][0, 2] < 1e-8


@pytest.mark.parametrize("name,eq8", [("veronese", 8 * np.sqrt(2)),
                                      ("holomorphic-curve", 4.0)])
def test_psi_with_swapped_half_bundles_breaks_eq8(name, eq8):
    # e^{2it} on N'' and e^{-2it} on N' turn the (2,0)-part of alpha the
    # wrong way; psi stays unitary.  On the verify grid.
    geom, bun = _psi_inputs(name, per_axis=9, margin=0.02)
    swapped = dataclasses.replace(
        bun, Np=gaussmaps.Bundle(*map(np.conj, bun.Np)))
    got, unitarity, _ = family.build_psi(geom, swapped, [np.pi / 4])[0][0]
    assert got == pytest.approx(eq8, rel=1e-6)
    assert unitarity < 1e-10


@pytest.mark.parametrize("name", ["veronese", "holomorphic-curve"])
def test_psi_with_scaled_half_bundle_breaks_unitarity(name):
    # psi acts on N' as 1 + 1.1 a with a = e^{2it} - 1 = i - 1, and
    # |1 + 1.1 a|^2 - 1 = 0.22.  On the verify grid.
    geom, bun = _psi_inputs(name, per_axis=9, margin=0.02)
    scaled = dataclasses.replace(bun, Np=bun.Np._replace(P=1.1 * bun.Np.P))
    _, unitarity, _ = family.build_psi(geom, scaled, [np.pi / 4])[0][0]
    assert unitarity == pytest.approx(0.22, abs=1e-8)
