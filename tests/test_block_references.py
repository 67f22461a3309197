"""The residual bodies that run in blocks of grid points
(chartcalc.grid_max) against their full-grid bodies, kept here as
references: the sublemma, the bundles' outside residuals, psi_theta's
sweep, the three-bundle isotropy parallelity, the two-sided lift
grading and ppmc's (1,1)-part must equal them exactly (==) on every
registry fixture and on the first 1 and 129 points of product-spheres,
either side of the block edge.  A
NaN in the last, partial block of product-spheres' 625 points
(625 = 4 * 128 + 113) reaches each residual, and the runner reads
ERROR."""

import dataclasses

import numpy as np
import pytest

from plurimean import chartcalc, family, forms, gaussmaps, kaehler
from plurimean import pipeline
from plurimean.chartcalc import form_parts
from plurimean.fixtures import fixture_names, get_fixture

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
    """gaussmaps.outside_residual's two products over the whole grid."""
    G, D, n, _ = dP.shape
    Y = dP.reshape(G, D * n, n) @ P_source
    Y = Y.reshape(G, D, n, n).transpose(0, 2, 1, 3).reshape(G, n, D * n)
    M = P_target @ Y
    return float(np.max(np.abs(M))) if M.size else 0.0


def isotropy_parallelity_ref(bun):
    """The parallelity of N', N° and N'' each, N'' included."""
    return float(np.max([outside_residual_ref(bun.Nc.P - S.P, S.dP, S.P)
                         for S in (bun.Np, bun.No, bun.Npp)]))


def lift_grading_ref(bun):
    """The lift grading from both cross blocks, tau' -> tau'' and
    tau'' -> tau', of d xi = i (dP_tau' - dP_tau'')."""
    dxi = 1j * (bun.taup.dP - bun.taupp.dP)
    return float(np.max([outside_residual_ref(bun.taup.P, dxi, bun.taupp.P),
                         outside_residual_ref(bun.taupp.P, dxi, bun.taup.P)]))


def build_psi_ref(geom, bun, thetas):
    """family.build_psi with its angle sweep over the whole grid."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    E = np.exp(2j * thetas)
    G, d, _, n = geom.alpha.shape
    P, Q = bun.Np.P, bun.Npp.P
    Ph, Qh = (M.conj().transpose(0, 2, 1) for M in (P, Q))
    alpha = geom.alpha.reshape(G, d * d, n)
    u, v, w = form_parts(geom.alpha).reshape(3, G, d * d, n)
    Pa = alpha @ P.transpose(0, 2, 1)
    X = np.stack([alpha - 2 * Pa.real - u, 2 * Pa.real - v,
                  -2 * Pa.imag - w])
    PQh, PPh_QQh = P @ Qh, P @ Ph + Q @ Qh
    C0 = 2 * PPh_QQh - P - Qh - Ph - Q + PQh + PQh.conj().transpose(0, 2, 1)
    C1 = P + Qh - PPh_QQh - 2 * PQh
    M = P @ bun.Nc.P
    out = np.empty((len(thetas), 3))
    for t in range(len(thetas)):
        out[t, 0] = np.max(np.abs(X[0] + c2[t] * X[1] + s2[t] * X[2]))
        Y = E[t] * C1 + E[t] ** 2 * PQh
        out[t, 1] = np.max(np.abs(C0 + Y + Y.conj().transpose(0, 2, 1)))
        out[t, 2] = 2 * np.max(np.abs((c2[t] - 1) * M.real
                                      - s2[t] * M.imag))
    half_turn = np.real(bun.Nc.P - 2 * (P + Q))
    counts = np.sum(np.linalg.eigvalsh(half_turn) < -0.5, axis=1)
    if np.any(counts != counts[0]):
        raise ValueError("(-1)-eigenspace dimension varies over grid")
    return out, int(counts[0])


def ppmc_residual_ref(geom):
    """The (1,1)-part of D alpha from all three parts of form_parts."""
    return float(np.max(np.abs(form_parts(geom.Dalpha)[0])))


# ------------------------------------------------------------------ cases

SLICES = (1, 129)
CASES = [*fixture_names(), *(f"product-spheres[:{k}]" for k in SLICES)]


@pytest.fixture(scope="module")
def layers():
    """case -> (geom, bundles): each registry fixture on its verify grid,
    and product-spheres on the first k points of that grid."""
    cfg = pipeline.RunConfig()
    out = {}
    for name in fixture_names():
        ctx = pipeline.FixtureContext(get_fixture(name), cfg)
        out[name] = ctx.geom, ctx.bundles
    ctx = pipeline.FixtureContext(get_fixture("product-spheres"), cfg)
    assert len(ctx.pts) == 625
    for k in SLICES:
        geom = forms.compute_geometry(ctx.rec.immersion, ctx.pts[:k])
        out[f"product-spheres[:{k}]"] = (
            geom, gaussmaps.projector_derivatives(geom))
    return out


def test_block_size_splits_product_spheres_with_a_partial_block():
    assert chartcalc._BLOCK == 128
    assert 625 % chartcalc._BLOCK == 113
    assert max(SLICES) == chartcalc._BLOCK + 1


@pytest.mark.parametrize("case", CASES)
def test_sublemma_equals_full_grid(layers, case):
    geom, _ = layers[case]
    assert kaehler.sublemma_residual(geom) == sublemma_residual_ref(geom)


@pytest.mark.parametrize("case", CASES)
def test_outside_residuals_equal_full_grid(monkeypatch, layers, case):
    """Every outside residual of superhorizontality, holomorphicity,
    the chain, lift-grading and isotropy, call by call."""
    geom, bun = layers[case]
    calls = []
    blocked = gaussmaps.outside_residual

    def spy(*args):
        calls.append((blocked(*args), outside_residual_ref(*args)))
        return calls[-1][0]

    monkeypatch.setattr(gaussmaps, "outside_residual", spy)
    gaussmaps.superhorizontality_residual(bun)
    gaussmaps.holomorphicity_residuals(geom, bun)
    gaussmaps.differential_chain_residuals(geom, bun)
    gaussmaps.lift_grading_residual(bun)
    gaussmaps.isotropy_decomposition(bun)
    assert len(calls) == 1 + 1 + 5 + 1 + 2
    for got, ref in calls:
        assert got == ref


@pytest.mark.parametrize("case", CASES)
def test_isotropy_parallelity_equals_three_bundle_reference(layers, case):
    _, bun = layers[case]
    assert (gaussmaps.isotropy_decomposition(bun).parallelity
            == isotropy_parallelity_ref(bun))


@pytest.mark.parametrize("case", CASES)
def test_lift_grading_equals_two_sided_reference(layers, case):
    _, bun = layers[case]
    assert gaussmaps.lift_grading_residual(bun) == lift_grading_ref(bun)


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
    ctx.isotropy        # computed clean, before any field is replaced
    return ctx


def _with_nan(a, index):
    a = a.copy()
    a[(624, *index)] = np.nan
    return a


def _run(monkeypatch, ctx, checks, **layers):
    """pipeline.run on product-spheres with the context's layers
    replaced by the given ones; {check: result}."""
    for name, value in {"geom": ctx.geom, "bundles": ctx.bundles,
                        "isotropy": ctx.isotropy, **layers}.items():
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
    assert np.isnan(gaussmaps.superhorizontality_residual(bun))
    chain = gaussmaps.differential_chain_residuals(spheres.geom, bun)
    assert np.isnan(chain["tau'->N'"])
    res = _run(monkeypatch, spheres, ["superhorizontality", "chain"],
               bundles=bun)
    assert res["superhorizontality"].status == pipeline.ERROR
    assert res["chain"].status == pipeline.ERROR


def test_nan_in_n_prime_reaches_the_psi_sweep(monkeypatch, spheres):
    """A NaN imaginary part of P_N' leaves psi_{pi/2} = Re(...) finite,
    so the eigenspace count still runs, and every angle of the sweep
    reads NaN."""
    bun = spheres.bundles
    P = bun.Np.P.copy()
    P[624, 0, 1] = complex(P[624, 0, 1].real, np.nan)
    bun = dataclasses.replace(bun, Np=bun.Np._replace(P=P))
    out, _ = family.build_psi(spheres.geom, bun, THETAS)
    assert np.isnan(out[:, :2]).all()
    res = _run(monkeypatch, spheres, ["psi"], bundles=bun)
    assert res["psi"].status == pipeline.ERROR
