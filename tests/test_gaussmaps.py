"""Projector-valued Gauss maps, normal subbundles, isotropy residuals."""

import functools

import numpy as np
import pytest

from plurimean import flags, forms, gaussmaps, pipeline
from plurimean.chartcalc import RankError
from plurimean.fixtures import registry
from test_controls import CONTROLS
from test_forms import _geom

ADMITTED = [r.name for r in registry() if r.flags["kaehler"]]

# verified subbundle ranks (tau', N°, N') per fixture
EXPECTED_RANKS = {
    "plane": (1, 0, 0),
    "sphere": (1, 1, 0),
    "ellipsoid": (1, 1, 1),
    "cylinder": (1, 1, 1),
    "catenoid": (1, 0, 1),
    "helicoid": (1, 0, 1),
    "holomorphic-curve": (1, 0, 1),
    "product-spheres": (2, 2, 0),
    "veronese": (1, 1, 1),
    "standard-embedding": (1, 1, 0),
}


def _bundles(name, per_axis=5):
    geom = _geom(name, per_axis)
    return geom, gaussmaps.projector_derivatives(geom)


@pytest.mark.parametrize("name", ADMITTED)
def test_gauss_projection_lands_in_grassmannian(name):
    geom = _geom(name)
    idem, symm, tr = gaussmaps.grassmann_invariants(
        geom.P_T, geom.jet.chart_dim)
    assert max(idem, symm, tr) < 1e-10


def test_grassmann_invariants_see_a_perturbed_projector():
    """P_T is a projector by construction, so no immersion makes the
    grassmann check fail; noise of 1e-3 on the field must show in all
    three invariants, far above their 1e-10 threshold."""
    geom = _geom("sphere")
    noise = np.random.default_rng(11).standard_normal(geom.P_T.shape)
    invariants = gaussmaps.grassmann_invariants(geom.P_T + 1e-3 * noise,
                                                geom.jet.chart_dim)
    assert min(invariants) > 1e-4


@pytest.mark.parametrize("name", ADMITTED)
def test_gauss_differential_two_routes(name):
    # the FD route of eq4: the closed-form dP_T is built from alpha and
    # would agree with it identically
    geom = _geom(name)
    dP_T = gaussmaps.fd_tangent_projector_derivatives(geom, 1e-4)
    res = gaussmaps.dgauss_check(geom, dP_T)
    assert res < 1e-5


@pytest.mark.parametrize("v", [0, 1])
def test_dgauss_check_keeps_a_nan(v):
    geom = _geom("sphere")
    dP_T = gaussmaps.fd_tangent_projector_derivatives(geom, 1e-4)
    dP_T[3, v, 0, 0] = np.nan
    assert np.isnan(gaussmaps.dgauss_check(geom, dP_T))


@pytest.mark.parametrize("name", ["sphere", "cylinder", "catenoid",
                                  "veronese", "standard-embedding"])
def test_levi_form_vanishes_on_parallel_fixtures(name):
    assert gaussmaps.gauss_levi_residual(_geom(name)) < 1e-10


def test_levi_form_detects_nonparallel_control():
    assert gaussmaps.gauss_levi_residual(_geom("ellipsoid")) > 1e-2


def _projector(gens, scale=0.0):
    """(P, r) of projector_derivative, with no derivative directions."""
    return gaussmaps.projector_derivative(gens, np.zeros_like(gens)[:, None],
                                          scale)[:2]


def test_projector_from_generators_properties():
    rng = np.random.default_rng(0)
    gens = rng.standard_normal((6, 2, 5)) + 1j * rng.standard_normal(
        (6, 2, 5))
    P, r = _projector(gens)
    assert r == 2
    assert np.max(np.abs(np.einsum("gxy,gyz->gxz", P, P) - P)) < 1e-12
    assert np.max(np.abs(P - P.transpose(0, 2, 1).conj())) < 1e-12
    # generators themselves are fixed by the projector
    assert np.max(np.abs(np.einsum("gxy,gky->gkx", P, gens)
                         - gens)) < 1e-12


def test_projector_rank_zero_with_scale():
    noise = 1e-14 * np.random.default_rng(1).standard_normal((4, 2, 5))
    P, r = _projector(noise.astype(complex), scale=1.0)
    assert r == 0
    assert np.max(np.abs(P)) == 0.0


def test_projector_rejects_grid_varying_rank():
    gens = np.zeros((3, 2, 4), dtype=complex)
    gens[:, 0, 0] = 1.0
    gens[2, 1, 1] = 1.0  # rank jumps from 1 to 2 at the last point
    with pytest.raises(RankError, match="rank varies"):
        _projector(gens)


@pytest.mark.parametrize("name", ADMITTED)
def test_subbundle_ranks(name):
    geom = _geom(name)
    bun = gaussmaps.bundle_projectors(geom)
    assert (bun.ranks["tau'"], bun.ranks["N°"],
            bun.ranks["N'"]) == EXPECTED_RANKS[name]
    # tau'' is the conjugate bundle, N^c the full normal complement
    n = geom.imm.ambient_dim
    total = bun.T.P + bun.Nc
    assert np.max(np.abs(total - np.eye(n))) < 1e-10


@pytest.mark.parametrize("name", ["veronese", "catenoid"])
def test_derived_bundles_are_conjugates_and_complement(name):
    geom, bun = _bundles(name)
    n = geom.imm.ambient_dim
    # tau'' is read as conj tau', so tau' and its conjugate must split
    # the complexified tangent bundle, the derivatives included
    for split, T in ((bun.taup.P + bun.taup.P.conj(), bun.T.P),
                     (bun.taup.dP + bun.taup.dP.conj(), bun.T.dP)):
        assert np.max(np.abs(split - T)) < 1e-10
    # N^c is the complex projector I - P_T alone, derived once per
    # Bundles; the derivative it would carry, -dP_T, is checked as T's
    assert bun.Nc.dtype == complex
    assert np.array_equal(bun.Nc, np.eye(n) - bun.T.P)
    assert bun.Nc is bun.Nc


@pytest.mark.parametrize("name", ADMITTED)
def test_superhorizontality_universal(name):
    _, bun = _bundles(name)
    assert bun.residuals["superhorizontality"] < 1e-8


def test_superhorizontality_reads_the_cross_block():
    """On C^5 with tau' spanned by w_1 = e_0 + i e_1 and w_2 = e_2 + i e_3,
    tau'' = conj tau' (Bundles derives it) and the rest e_4, as in
    _lift_bundles: a derivative of P_tau' with a tau' -> tau'' block
    reads that block's largest entry; the blocks inside tau' or tau'',
    out of tau'' and into the rest do not count.  Every entry is a
    small dyadic number, so the products are exact."""
    w = np.array([[1, 1j, 0, 0, 0], [0, 0, 1, 1j, 0]])
    P_taup = 0.5 * (w.T @ w.conj())
    e4 = np.eye(5)[4]
    # x y^H maps y to x: tau' -> tau', tau' -> rest, tau'' -> anywhere
    # (conj(w_a)^H = w_a^T), rest -> rest
    images = [*w, *w.conj(), e4]
    keep = [*(np.outer(x, w[a].conj()) for x in (*w, e4) for a in range(2)),
            *(np.outer(x, w[a]) for x in images for a in range(2)),
            np.outer(e4, e4)]
    coeff = np.random.default_rng(7).integers(-3, 4, (2, 2, len(keep)))
    dP = (coeff @ np.reshape(keep, (len(keep), 25))).reshape(2, 2, 5, 5)
    # T, N° and N' are zero fields, which the shared derivative pass
    # reads for its other residuals
    zero = gaussmaps.Bundle(np.zeros((2, 5, 5), complex),
                            np.zeros((2, 2, 5, 5), complex))

    def bundles():
        return gaussmaps.Bundles(
            T=zero, taup=gaussmaps.Bundle(np.stack([P_taup] * 2), dP),
            No=zero, Np=zero, ranks={})

    assert bundles().residuals["superhorizontality"] == 0.0
    # c/2 conj(w_1) w_1^H maps w_1 to c conj(w_1), with largest entry c/2
    dP[1, 0] += 0.75 * np.outer(w[0].conj(), w[0].conj())
    assert bundles().residuals["superhorizontality"] == 0.75


def _lift_bundles(dxi):
    """Bundles on C^5 at two points with tau' spanned by (e_0 + i e_1)
    and (e_2 + i e_3), tau'' = conj tau' (Bundles derives it) and the
    rest e_4, so that both projectors have the exact entries 0, 1/2 and
    +-i/2.  dP_tau' has an integer real part, which xi does not see, and
    the imaginary part -dxi/2 for the given derivatives dxi (G, D, 5, 5)
    of xi = i (P_tau' - P_tau'').  T, N° and N' are zero fields, which
    the shared derivative pass reads for its other residuals."""
    w = np.array([[1, 1j, 0, 0, 0], [0, 0, 1, 1j, 0]])
    P_taup = 0.5 * (w.T @ w.conj())
    real = np.random.default_rng(3).integers(-3, 4, dxi.shape)
    zero = gaussmaps.Bundle(np.zeros((2, 5, 5), complex),
                            np.zeros((2, 2, 5, 5), complex))
    return gaussmaps.Bundles(
        T=zero, taup=gaussmaps.Bundle(np.stack([P_taup] * 2),
                                      real - 0.5j * dxi),
        No=zero, Np=zero, ranks={})


def _skew(a, b):
    E = np.eye(5)
    return np.outer(E[b], E[a]) - np.outer(E[a], E[b])


def _sym(a, b):
    E = np.eye(5)
    return np.outer(E[b], E[a]) + np.outer(E[a], E[b])


def _lift_dxi():
    """Integer combinations, at two points and two directions, of real
    skew and symmetric generators that keep tau' (and so tau''): the
    rotations within e_0, e_1 and within e_2, e_3, the maps
    e_0 + i e_1 <-> e_2 + i e_3, those between tau' + tau'' and e_4,
    and e_4 e_4^T."""
    keep = [_skew(0, 1), _skew(2, 3), _skew(0, 2) + _skew(1, 3),
            _sym(0, 2) + _sym(1, 3), *(_skew(a, 4) for a in range(4)),
            *(_sym(a, 4) for a in range(5))]
    coeff = np.random.default_rng(5).integers(-3, 4, (2, 2, len(keep)))
    return (coeff @ np.reshape(keep, (len(keep), 25))).reshape(2, 2, 5, 5)


def test_lift_grading_residual_is_zero_without_cross_blocks():
    bun = _lift_bundles(_lift_dxi())
    assert bun.residuals["lift-grading"] == 0.0


def test_lift_grading_residual_reads_the_cross_block():
    """The real skew map A = skew(0, 2) - skew(1, 3), a derivative that
    a real xi can have, maps e_0 + i e_1 to e_2 - i e_3, a tau' <-> tau''
    block, and P_tau' (c A) P_tau'' has the largest entry c/2; the
    blocks that keep tau' do not count."""
    dxi = _lift_dxi()
    dxi[1, 0] += 1.5 * (_skew(0, 2) - _skew(1, 3))
    bun = _lift_bundles(dxi)
    assert bun.residuals["lift-grading"] == 0.75


def _control_bundles(name):
    """(geom, bundles) of a control of test_controls on its verify
    grid."""
    ctx = pipeline.FixtureContext(CONTROLS[name](), pipeline.RunConfig())
    return ctx.geom, ctx.bundles


# product-spheres on 3^4 points, and the z1z2-graph control (m = 2, not
# a product) on its 5^4 verify points
LIFT_POINTS = [
    *(pytest.param(functools.partial(_bundles, "product-spheres",
                                     per_axis=3), p, id=str(p))
      for p in (0, 40, 80)),
    *(pytest.param(functools.partial(_control_bundles, "z1z2-graph"), p,
                   id=f"z1z2-graph-{p}") for p in (0, 312, 624))]


@pytest.mark.parametrize("layers,point", LIFT_POINTS)
def test_lift_grading_matches_the_flag_algebra_route(layers, point):
    """At a grid point of a Kaehler record with m = 2 in R^6, the flag
    element of o(6) with tau' at level 1, tau'' = conj tau' at -1 and
    the real normal space at 0 is xi = i (P_tau' - P_tau'') =
    -2 Im P_tau'.  flags grades it with one dimension at each of the
    levels +-2, and d xi = -2 Im dP_tau' has no coordinate there, as the
    bundles' lift-grading residual says; the real part of g_2's basis
    element, a real skew tau'' -> tau' block, reads coordinate 1."""
    geom, bun = layers()
    n = bun.taup.P.shape[-1]
    P = bun.taup.P[point]
    ev, V = np.linalg.eigh(P)
    evn, Vn = np.linalg.eigh(np.eye(n) - geom.P_T[point])
    elem = flags.canonical_orthogonal({1.0: V[:, ev > 0.5].T}, n,
                                      real_frame=Vn[:, evn > 0.5].T)
    assert np.max(np.abs(elem.xi + 2.0 * P.imag)) < 1e-15
    grading = flags.grade(elem)
    assert grading.dims() == {-2.0: 1, -1.0: 4, 0.0: 5, 1.0: 4, 2.0: 1}

    def coords(k, M):
        return grading.space(k).reshape(1, -1).conj() @ M.reshape(-1, n * n).T

    dxi = -2.0 * bun.taup.dP[point].imag
    for k in (2.0, -2.0):
        assert np.max(np.abs(coords(k, dxi))) <= pipeline.TIER1
    assert bun.residuals["lift-grading"] <= pipeline.TIER1
    g2 = grading.space(2.0)[0]
    assert abs(coords(2.0, g2 + g2.conj())[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("name,small", [
    ("catenoid", True), ("holomorphic-curve", True), ("plane", True),
    ("veronese", False), ("sphere", False),
])
def test_holomorphicity_routes_agree(name, small):
    geom, bun = _bundles(name)
    r1 = forms.pluriminimal_residual(geom)
    r2 = bun.residuals["frame_route"]
    if small:
        assert r1 < 1e-6 and r2 < 1e-8
    else:
        assert r1 > 1e-1 and r2 > 1e-1


def test_half_isotropy_veronese_and_cylinder():
    geom, bun = _bundles("veronese")
    t1 = gaussmaps.half_isotropy_residual(geom, bun)
    assert t1 < 1e-6 and forms.ppmc_residual(geom) < 1e-6
    geom, bun = _bundles("cylinder")
    t1 = gaussmaps.half_isotropy_residual(geom, bun)
    assert t1 > 1e-2


def isotropy_invariants(bun):
    """Structural residuals: conjugation invariance of N°, isotropy of
    tau'."""
    no_real = float(np.max(np.abs(bun.No.P - bun.No.P.conj())))
    # symmetric product on tau': P' J_sym P'^T with the plain transpose
    iso = float(np.max(np.abs(
        np.einsum("gxy,gzy->gxz", bun.taup.P, bun.taup.P))))
    return no_real, iso


def test_isotropy_decomposition_veronese():
    _, bun = _bundles("veronese")
    orthogonality, parallelity = pipeline._isotropy(bun)
    assert orthogonality < 1e-8
    assert parallelity < 1e-8
    no_real, iso = isotropy_invariants(bun)
    assert no_real < 1e-10
    assert iso < 1e-10


def test_isotropy_decomposition_rejects_catenoid():
    _, bun = _bundles("catenoid")
    assert bun.residuals["orthogonality"] > 1e-2


@pytest.mark.parametrize("name", ["veronese", "holomorphic-curve",
                                  "product-spheres",
                                  "standard-embedding"])
def test_differential_chain(name):
    _, bun = _bundles(name)
    res = bun.residuals
    assert max(res[arrow] for arrow in gaussmaps.CHAIN) < 1e-8


@pytest.mark.parametrize("name", ["sphere", "veronese",
                                  "product-spheres",
                                  "standard-embedding"])
def test_gauss_section_on_spherical_fixtures(name):
    geom, bun = _bundles(name)
    mc = forms.mean_curvature_and_sphere_reduction(geom)
    normality, tangency, spread = gaussmaps.gauss_section_check(
        geom, bun, mc)
    assert max(normality, tangency, spread) < 1e-9


def test_gauss_section_requires_spherical():
    # the minimal catenoid has kappa = 0, so the reduction has no centre
    geom, bun = _bundles("catenoid")
    mc = forms.mean_curvature_and_sphere_reduction(geom)
    assert mc.center is None
    with pytest.raises(ValueError, match="kappa = 0; no centre"):
        gaussmaps.gauss_section_check(geom, bun, mc)
