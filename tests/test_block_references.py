"""The residual bodies that run in blocks of grid points
(chartcalc.grid_max) against their full-grid bodies, kept here as
references: the sublemma, the bundles' residual table,
psi_theta's sweep, the three-bundle isotropy parallelity, the two-sided
lift grading and ppmc's (1,1)-part must equal them exactly (==) on
every registry fixture, on the first 1 and 129 points of
product-spheres, either side of the block edge, and on the z1z2-graph
control, the one m = 2 record whose N° is 0.  The references form every
product, also those that the blocked bodies skip where N' or N°
vanishes.  psi_theta's sweep also stays within 1e-12 of its per-angle
form.  A NaN in the last, partial block of product-spheres' 625 points
(625 = 4 * 128 + 113) reaches each residual, also through the products
of its zero N' that a finite block skips, and the runner reads
ERROR."""

import dataclasses

import numpy as np
import pytest

from plurimean import chartcalc, family, forms, gaussmaps, kaehler
from plurimean import pipeline
from plurimean.chartcalc import form_parts, holomorphic_basis
from plurimean.fixtures import fixture_names, get_fixture
from test_controls import CONTROLS

THETAS = [*family.THETA_SWEEP, np.pi]


# --------------------------------------------------- full-grid references

def sublemma_residual_ref(geom):
    """kaehler.sublemma_residual with every product over the whole grid."""
    alpha, ginv = geom.alpha, geom.ginv
    G, d, _, n = alpha.shape
    K, K_sym = kaehler._sublemma_rows(geom.imm.complex_dim)
    c = len(K)
    rows = alpha.reshape(G, d, d * n)
    A = kaehler.shape_operators(alpha, ginv, K @ alpha.reshape(G, d * d, n))
    S = (np.ascontiguousarray(A.transpose(0, 1, 3, 2)).reshape(
        G, c * d, d) @ rows).reshape(G, c, d, d, n)
    Y = K_sym @ (ginv @ rows).reshape(G, d, d, n)
    U = geom.R.swapaxes(3, 4).reshape(G, d * d, d * d) @ Y.reshape(
        G, d * d, c * n)
    diff = (S.transpose(0, 3, 2, 1, 4) - S.transpose(0, 2, 3, 1, 4)
            - U.reshape(G, d, d, c, n))
    return float(np.max(np.hypot(*np.split(diff, 2, axis=3))))


def outside_residual_ref(P_target, dP, P_source):
    """sup |P_target dP P_source| as the derivative pass forms it, its
    two products (_right_product, then _target_max) over the whole
    grid."""
    G, D, n, _ = dP.shape
    Y = dP.reshape(G, D * n, n) @ P_source
    Y = Y.reshape(G, D, n, n).transpose(0, 2, 1, 3).reshape(G, n, D * n)
    M = P_target @ Y
    return float(np.max(np.abs(M))) if M.size else 0.0


def _conj(S):
    """The conjugate bundle of S: tau'' of tau', N'' of N'."""
    return gaussmaps.Bundle(*map(np.conj, S))


def residuals_ref(bun):
    """Bundles.residuals with each residual's products over the whole
    grid, every source its own field (tau'' and N'' too): Y = dP_S P_S,
    its (1,0) or (0,1) combinations, then the target against them;
    lift-grading's tau' -> tau'' block of d xi; the mutual products of
    the projectors of N', N° and N''."""
    taupp, Npp = (_conj(S) for S in (bun.taup, bun.Np))
    B = holomorphic_basis(bun.taup.dP.shape[1] // 2)
    n = bun.taup.P.shape[-1]
    eye = np.eye(n, dtype=complex)[None]

    def target(P_target, S, C=None):
        G, D = S.dP.shape[:2]
        Y = (S.dP.reshape(G, D * n, n) @ S.P).reshape(G, D, n * n)
        if C is not None:
            Y = C @ Y
        Y = Y.reshape(G, -1, n, n)
        M = P_target @ Y.transpose(0, 2, 1, 3).reshape(G, n, -1)
        return float(np.max(np.abs(M))) if M.size else 0.0

    out = {"superhorizontality": target(taupp.P, bun.taup),
           "frame_route": target(eye - bun.taup.P, bun.taup, B.conj()),
           "parallelity N'": target(bun.Nc - bun.Np.P, bun.Np),
           "parallelity N°": target(bun.Nc - bun.No.P, bun.No)}
    chain = [("N''->tau''", Npp, taupp),
             ("tau''->N°", taupp, bun.No),
             ("N°->tau'", bun.No, bun.taup),
             ("tau'->N'", bun.taup, bun.Np),
             ("N'->0", bun.Np, None)]
    for arrow, S, nxt in chain:
        P_out = eye - S.P
        if nxt is not None:
            P_out = P_out - nxt.P
        out[arrow] = target(P_out, S, B)
    out["lift-grading"] = outside_residual_ref(
        bun.taup.P, -2.0 * bun.taup.dP.imag, taupp.P)
    out["orthogonality"] = float(np.max([
        np.max(np.abs(A @ B)) for A, B in ((bun.Np.P, bun.No.P),
                                           (bun.Np.P, Npp.P),
                                           (bun.No.P, Npp.P))]))
    return out


def isotropy_parallelity_ref(bun):
    """The parallelity of N', N° and N'' each, N'' included."""
    return float(np.max([outside_residual_ref(bun.Nc - S.P, S.dP, S.P)
                         for S in (bun.Np, bun.No, _conj(bun.Np))]))


def lift_grading_ref(bun):
    """The lift grading from both cross blocks, tau' -> tau'' and
    tau'' -> tau', of d xi = i (dP_tau' - dP_tau'')."""
    taupp = _conj(bun.taup)
    dxi = 1j * (bun.taup.dP - taupp.dP)
    return float(np.max([outside_residual_ref(bun.taup.P, dxi, taupp.P),
                         outside_residual_ref(taupp.P, dxi, bun.taup.P)]))


def _psi_terms(geom, bun):
    """psi_theta's theta-independent terms over the whole grid: X
    (3, G, d^2, n) of eq8, the unitarity terms C0, C1, P Q*, their
    conjugate transposes as needed, and M = P P_Nc."""
    G, d, _, n = geom.alpha.shape
    P, Q = bun.Np.P, bun.Np.P.conj()
    Ph, Qh = (M.conj().transpose(0, 2, 1) for M in (P, Q))
    alpha = geom.alpha.reshape(G, d * d, n)
    u, v, w = form_parts(geom.alpha).reshape(3, G, d * d, n)
    Pa = alpha @ P.transpose(0, 2, 1)
    X = np.stack([alpha - 2 * Pa.real - u, 2 * Pa.real - v,
                  -2 * Pa.imag - w])
    PQh, PPh_QQh = P @ Qh, P @ Ph + Q @ Qh
    C0 = 2 * PPh_QQh - P - Qh - Ph - Q + PQh + PQh.conj().transpose(0, 2, 1)
    C1 = P + Qh - PPh_QQh - 2 * PQh
    return X, C0, C1, PQh, P @ bun.Nc


def _minus_one_dim(bun):
    P, Q = bun.Np.P, bun.Np.P.conj()
    half_turn = np.real(bun.Nc - 2 * (P + Q))
    counts = np.sum(np.linalg.eigvalsh(half_turn) < -0.5, axis=1)
    if np.any(counts != counts[0]):
        raise ValueError("(-1)-eigenspace dimension varies over grid")
    return int(counts[0])


def build_psi_ref(geom, bun, thetas):
    """family.build_psi with each leg one product over the whole grid:
    the angle rows (1, cos 2t, sin 2t), (1, E, E^2, conj E, conj E^2)
    and (cos 2t - 1, -sin 2t) against their stacked terms."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    E = np.exp(2j * thetas)
    X, C0, C1, PQh, M = _psi_terms(geom, bun)
    rows = [np.stack([np.ones_like(c2), c2, s2], axis=1),
            np.stack([np.ones_like(E), E, E ** 2, E.conj(), E.conj() ** 2],
                     axis=1),
            np.stack([c2 - 1, -s2], axis=1)]
    terms = [X, np.stack([C0, C1, PQh, C1.conj().transpose(0, 2, 1),
                          PQh.conj().transpose(0, 2, 1)]),
             np.stack([M.real, M.imag])]
    out = np.stack([np.max(np.abs(r @ t.reshape(len(t), -1)), axis=1)
                    for r, t in zip(rows, terms)], axis=1)
    out[:, 2] *= 2
    return out, _minus_one_dim(bun)


def build_psi_per_angle_ref(geom, bun, thetas):
    """build_psi's residuals angle by angle over the whole grid, as a
    few axpys of the theta-independent terms each."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    E = np.exp(2j * thetas)
    X, C0, C1, PQh, M = _psi_terms(geom, bun)
    out = np.empty((len(thetas), 3))
    for t in range(len(thetas)):
        out[t, 0] = np.max(np.abs(X[0] + c2[t] * X[1] + s2[t] * X[2]))
        Y = E[t] * C1 + E[t] ** 2 * PQh
        out[t, 1] = np.max(np.abs(C0 + Y + Y.conj().transpose(0, 2, 1)))
        out[t, 2] = 2 * np.max(np.abs((c2[t] - 1) * M.real
                                      - s2[t] * M.imag))
    return out, _minus_one_dim(bun)


def ppmc_residual_ref(geom):
    """The (1,1)-part of D alpha from all three parts of form_parts."""
    return float(np.max(np.abs(form_parts(geom.Dalpha)[0])))


# ------------------------------------------------------------------ cases

SLICES = (1, 129)
CASES = [*fixture_names(), *(f"product-spheres[:{k}]" for k in SLICES),
         "z1z2-graph"]

# the cases whose N° or N' projector is exactly 0: N' of the isotropic
# ones (alpha^{2,0} = 0), N° of the pluriminimal ones (alpha^{1,1} = 0),
# both on the planes, whose alpha is 0
ZERO_BUNDLES = {"plane": {"N°", "N'"}, "skewed-plane": {"N°", "N'"},
                "sphere": {"N'"},
                "standard-embedding": {"N'"}, "product-spheres": {"N'"},
                **{f"product-spheres[:{k}]": {"N'"} for k in SLICES},
                "catenoid": {"N°"}, "helicoid": {"N°"},
                "holomorphic-curve": {"N°"}, "z1z2-graph": {"N°"}}


@pytest.fixture(scope="module")
def layers():
    """case -> (geom, bundles): each registry fixture and the z1z2-graph
    control on its verify grid, and product-spheres on the first k
    points of that grid."""
    cfg = pipeline.RunConfig()
    out = {}
    for rec in [*map(get_fixture, fixture_names()), CONTROLS["z1z2-graph"]()]:
        ctx = pipeline.FixtureContext(rec, cfg)
        out[rec.name] = ctx.geom, ctx.bundles
    ctx = pipeline.FixtureContext(get_fixture("product-spheres"), cfg)
    assert len(ctx.pts) == 625
    for k in SLICES:
        geom = forms.compute_geometry(ctx.rec.immersion, ctx.pts[:k])
        out[f"product-spheres[:{k}]"] = (
            geom, gaussmaps.projector_derivatives(geom))
    return out


def test_zero_bundles_are_the_isotropic_and_pluriminimal_cases(layers):
    """The cases on which the blocked bodies skip the products of a
    vanishing N' or N°, so that the exact tests below cover the skip."""
    assert layers.keys() == set(CASES)
    for case, (_, bun) in layers.items():
        zero = {k for k, b in (("N°", bun.No), ("N'", bun.Np))
                if not b.P.any()}
        assert zero == ZERO_BUNDLES.get(case, set()), case


def test_block_size_splits_product_spheres_with_a_partial_block():
    assert chartcalc._BLOCK == 128
    assert 625 % chartcalc._BLOCK == 113
    assert max(SLICES) == chartcalc._BLOCK + 1


@pytest.mark.parametrize("case", CASES)
def test_sublemma_equals_full_grid(layers, case):
    geom, _ = layers[case]
    assert kaehler.sublemma_residual(geom) == sublemma_residual_ref(geom)


@pytest.mark.parametrize("case", CASES)
def test_outside_residuals_equal_full_grid(layers, case):
    """Every residual of the shared pass (superhorizontality,
    holomorphicity, the isotropy parallelity and orthogonality, the
    chain and lift-grading), each against its own full-grid products."""
    _, bun = layers[case]
    fresh = dataclasses.replace(bun)    # the residual pass not cached
    ref = residuals_ref(fresh)
    assert fresh.residuals == ref
    assert list(ref) == list(gaussmaps.RESIDUALS)


@pytest.mark.parametrize("case", [case for case, zero in
                                  ZERO_BUNDLES.items() if "N°" in zero])
def test_tau_pp_to_n_circ_equals_frame_route_where_n_circ_vanishes(
        layers, case):
    """With N° = 0, tau''->N°'s target I - P_tau' - conj P_N° is
    frame_route's, I - P_tau', and the arrow reads frame_route's value
    bit for bit."""
    _, bun = layers[case]
    assert not bun.No.P.any()
    res = dataclasses.replace(bun).residuals
    assert res["tau''->N°"] == res["frame_route"]


def test_tau_pp_to_n_circ_equals_frame_route_under_a_nan(layers):
    """A NaN in P_N' makes the zero N° no vanishing factor, so the pass
    forms tau''->N°'s own target: it still equals frame_route's value,
    finite, and the full-product reference's.  A NaN in dP_tau' reaches
    both."""
    _, bun = layers["catenoid"]
    P = bun.Np.P.copy()
    P[5, 0, 1] = np.nan
    nan_Np = dataclasses.replace(bun, Np=bun.Np._replace(P=P))
    res = nan_Np.residuals
    assert np.isnan(res["orthogonality"])
    assert np.isfinite(res["frame_route"])
    assert res["tau''->N°"] == res["frame_route"] == residuals_ref(
        nan_Np)["tau''->N°"]
    dP = bun.taup.dP.copy()
    dP[5, 1, 0, 1] = np.nan
    res = dataclasses.replace(bun, taup=bun.taup._replace(dP=dP)).residuals
    assert np.isnan([res["tau''->N°"], res["frame_route"]]).all()


@pytest.mark.parametrize("case", CASES)
def test_isotropy_parallelity_equals_three_bundle_reference(layers, case):
    _, bun = layers[case]
    assert pipeline._isotropy(bun)[1] == isotropy_parallelity_ref(bun)


@pytest.mark.parametrize("case", CASES)
def test_lift_grading_equals_two_sided_reference(layers, case):
    _, bun = layers[case]
    assert bun.residuals["lift-grading"] == lift_grading_ref(bun)


@pytest.mark.parametrize("case", CASES)
def test_psi_sweep_equals_full_grid(layers, case):
    geom, bun = layers[case]
    try:
        ref = build_psi_ref(geom, bun, THETAS)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            family.build_psi(geom, bun, THETAS)
        return
    out, dim = family.build_psi(geom, bun, THETAS)
    assert np.array_equal(out, ref[0]) and dim == ref[1]
    per_angle = build_psi_per_angle_ref(geom, bun, THETAS)[0]
    assert np.max(np.abs(out - per_angle)) < 1e-12


@pytest.mark.parametrize("case", CASES)
def test_ppmc_equals_all_parts_reference(layers, case):
    geom, _ = layers[case]
    assert forms.ppmc_residual(geom) == ppmc_residual_ref(geom)


# ------------------------------------------------------------- grid_max

def test_grid_max_folds_array_results_elementwise():
    x = np.arange(2 * 300.0).reshape(300, 2)
    x[5, 1] = 1e9
    got = chartcalc.grid_max(lambda b: np.max(b, axis=0), x)
    assert np.array_equal(got, [598.0, 1e9])


def test_grid_max_runs_one_block_on_a_small_or_empty_grid():
    sizes = []

    def fn(a):
        sizes.append(len(a))
        return np.max(a, initial=-np.inf)

    assert chartcalc.grid_max(fn, np.arange(128.0)) == 127.0
    assert chartcalc.grid_max(fn, np.empty(0)) == -np.inf
    assert chartcalc.grid_max(fn, np.arange(625.0)) == 624.0
    assert sizes == [128, 0, 128, 128, 128, 128, 113]


def test_grid_max_passes_nan_from_any_block():
    x = np.zeros((625, 3))
    x[624, 2] = np.nan
    got = chartcalc.grid_max(lambda b: np.max(b, axis=0), x)
    assert got[:2].tolist() == [0.0, 0.0] and np.isnan(got[2])
    assert np.isnan(chartcalc.grid_max(np.max, x))


# ------------------------------------------------- NaN in the last block

@pytest.fixture
def spheres():
    ctx = pipeline.FixtureContext(get_fixture("product-spheres"),
                                  pipeline.RunConfig())
    assert len(ctx.pts) == 625
    return ctx


def _with_nan(a, index):
    a = a.copy()
    a[(624, *index)] = np.nan
    return a


# the entries of the bundles' table that the isotropy row, psi's gate, folds
ISOTROPY_KEYS = ("orthogonality", "parallelity N'", "parallelity N°")


def _same(got, ref):
    """Whether two residual tables are equal (==), a NaN equal to a
    NaN."""
    return got.keys() == ref.keys() and np.array_equal(
        list(got.values()), list(ref.values()), equal_nan=True)


def _run(monkeypatch, ctx, checks, **layers):
    """pipeline.run on product-spheres with the context's layers
    replaced by the given ones; {check: result}.  Replaced bundles keep
    the isotropy entries of the clean bundles' table, so that the
    isotropy row, psi's gate, PASSes and psi itself reads the replaced
    projectors."""
    if "bundles" in layers:
        clean = ctx.bundles.residuals
        layers["bundles"].residuals.update(
            {k: clean[k] for k in ISOTROPY_KEYS})
    return _run_replaced(monkeypatch, ctx, checks, **layers)


def _run_replaced(monkeypatch, ctx, checks, **layers):
    """pipeline.run on product-spheres with the context's layers
    replaced by the given ones, as they are; {check: result}."""
    for name, value in {"geom": ctx.geom, "bundles": ctx.bundles,
                        **layers}.items():
        monkeypatch.setattr(pipeline.FixtureContext, name,
                            property(lambda self, v=value: v))
    rep = pipeline.run(pipeline.RunConfig(fixtures=["product-spheres"],
                                          checks=["kaehler", *checks]))
    return {r.check: r for r in rep.results}


def test_nan_in_alpha_reaches_the_sublemma(monkeypatch, spheres):
    geom = dataclasses.replace(spheres.geom,
                               alpha=_with_nan(spheres.geom.alpha, (1, 2, 3)))
    assert np.isnan(kaehler.sublemma_residual(geom))
    res = _run(monkeypatch, spheres, ["sublemma"], geom=geom)
    assert res["kaehler"].status == pipeline.PASS
    assert res["sublemma"].status == pipeline.ERROR


def test_nan_in_tau_prime_derivative_reaches_its_residuals(monkeypatch,
                                                           spheres):
    bun = spheres.bundles
    bun = dataclasses.replace(bun, taup=bun.taup._replace(
        dP=_with_nan(bun.taup.dP, (3, 4, 5))))
    res = bun.residuals
    assert np.isnan(res["superhorizontality"])
    assert np.isnan(res["tau'->N'"])
    res = _run(monkeypatch, spheres, ["superhorizontality", "chain"],
               bundles=bun)
    assert res["superhorizontality"].status == pipeline.ERROR
    assert res["chain"].status == pipeline.ERROR


def test_nan_in_n_prime_reaches_the_psi_sweep(monkeypatch, spheres):
    """A NaN imaginary part of P_N' leaves psi_{pi/2} = Re(...) finite,
    so the eigenspace count still runs, and every angle of the sweep
    reads NaN.  The isotropy entries of its own table read NaN too, so
    _run keeps the clean ones for psi's isotropy gate."""
    bun = spheres.bundles
    P = bun.Np.P.copy()
    P[624, 0, 1] = complex(P[624, 0, 1].real, np.nan)
    bun = dataclasses.replace(bun, Np=bun.Np._replace(P=P))
    out, _ = family.build_psi(spheres.geom, bun, THETAS)
    assert np.isnan(out[:, :2]).all()
    assert np.isnan(bun.residuals["orthogonality"])
    res = _run(monkeypatch, spheres, ["psi"], bundles=bun)
    assert res["psi"].status == pipeline.ERROR


def test_nan_in_zero_n_prime_derivative_reaches_its_parallelity(
        monkeypatch, spheres):
    """product-spheres' N' is 0, and a finite block skips its products;
    a NaN in dP_N' makes the last block form them, so the NaN reaches
    the legs of N', as the full-product reference has it, and the
    isotropy row reads ERROR."""
    bun = spheres.bundles
    assert not bun.Np.P.any()
    bun = dataclasses.replace(bun, Np=bun.Np._replace(
        dP=_with_nan(bun.Np.dP, (1, 2, 3))))
    res = bun.residuals
    assert np.isnan([res[k] for k in ("parallelity N'", "N'->0",
                                      "N''->tau''")]).all()
    assert _same(res, residuals_ref(bun))
    res = _run_replaced(monkeypatch, spheres, ["isotropy"], bundles=bun)
    assert res["isotropy"].status == pipeline.ERROR


def test_nan_in_n_c_reaches_the_psi_identity_leg(monkeypatch, spheres):
    """With N' = 0, psi_theta = I on a finite block, whose identity leg
    is 0 with no product; a NaN imaginary part of P_Nc in the last block
    makes it form P P_Nc, NaN at every angle, as the full-product
    reference has it.  eq8's and unitarity's legs and psi_{pi/2} =
    Re(...) stay finite."""
    bun = dataclasses.replace(spheres.bundles)
    P = bun.Nc.copy()
    P[624, 0, 1] = complex(P[624, 0, 1].real, np.nan)
    bun.Nc = P
    out, dim = family.build_psi(spheres.geom, bun, THETAS)
    assert np.isnan(out[:, 2]).all() and np.isfinite(out[:, :2]).all()
    ref, ref_dim = build_psi_ref(spheres.geom, bun, THETAS)
    assert np.array_equal(out, ref, equal_nan=True) and dim == ref_dim
    res = _run(monkeypatch, spheres, ["psi"], bundles=bun)
    assert res["psi"].status == pipeline.ERROR
