"""The geometry pass, the family integration, the structure sweep, the
sublemma, the (p,q)-type residuals and the bundle layer call no
index-loop np.einsum, and the first two no per-point np.linalg.svd:
their contractions are batched `@` products and the rank test is
certified from g and g^-1.  g^-1 comes from the gate's Cholesky factor,
never from np.linalg.inv, and the chart constants are built once per m,
read-only, so a warm verify pass calls no np.kron.  Neither the family
path nor a full verify of a surface in R^3 forms a normal frame
(np.linalg.qr): only R^N of a normal bundle of rank >= 2 reads it, and
the family path forms no (p,q)-component of alpha.  A full verify
computes ppmc and R once per fixture, and the family verb R once.  The residual bodies that run in blocks
of grid points (chartcalc.grid_max) form no multi-MB temporary on
product-spheres (5^4 = 625 points), nor does its order-3 jet, whose
blocks span each sphere's two chart coordinates only.  A default
verify takes an SVD only of the N° and N' generator stacks that are
not negligible: tau' takes its Gram route.  A bundle that is exactly
0 (N' of an isotropic fixture, N° of a pluriminimal one) enters no
product of the residual pass or of psi's sweep, and a negligible stack
takes no generator derivative."""

import copy
import tracemalloc

import numpy as np
import pytest

from plurimean import (chartcalc, cli, family, forms, gaussmaps, kaehler,
                       kernels, pipeline)
from plurimean.fixtures import get_fixture, get_immersion, registry
from test_block_references import ZERO_BUNDLES


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


def test_family_verb_forms_no_pq_components(monkeypatch, tmp_path):
    """alpha20 and alpha11 are read by the bundle layer and the verify
    checks only; the family verb's geometries never form them."""
    calls = _spy(monkeypatch, ((forms, "contract_slots"),))
    assert cli.main(["family", "--fixture", "catenoid", "--grid", "41",
                     "--match", "helicoid",
                     "--report", str(tmp_path / "family.txt")]) == 0
    assert calls == []


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


def test_form_type_residuals_call_no_einsum(monkeypatch):
    """ppmc, eq2, the cross-factor identities and the Kaehler curvature
    identity split forms into (p,q)-types by chartcalc's one-product
    contractions (form_parts, contract_slots, kron) on every registry
    fixture."""
    cfg = pipeline.RunConfig()
    geoms = [pipeline.FixtureContext(rec, cfg).geom for rec in registry()]
    for geom in geoms:
        geom.R
    rng = np.random.default_rng(23)
    calls = _spy(monkeypatch, ((np, "einsum"),))
    for geom in geoms:
        x1, x2 = rng.standard_normal((2, geom.jet.chart_dim))
        y1, y2 = x1 + 1j * x2, x2 - 1j * x1
        forms.ppmc_residual(geom)
        forms.eq2_consistency_residual(geom)
        forms.cross_term_identity_residual(geom, x1, x2)
        forms.conjugate_cross_residual(geom, y1, y2)
        kaehler.kaehler_curvature_identity_residual(geom.R,
                                                    geom.imm.complex_dim)
    assert len(geoms) == 11
    assert calls == []


def test_bundle_layer_calls_no_einsum(monkeypatch):
    """The projector derivatives, the residuals read from them and the
    Grassmannian and eq4 residuals of P_T are batched `@` products on
    every registry fixture."""
    cfg = pipeline.RunConfig()
    ctxs = [pipeline.FixtureContext(rec, cfg) for rec in registry()
            if rec.flags["kaehler"]]
    fd_dP_T = [gaussmaps.fd_tangent_projector_derivatives(ctx.geom, cfg.h)
               for ctx in ctxs]
    for ctx in ctxs:
        ctx.mean_curvature   # built by forms, before the spy
    calls = _spy(monkeypatch, ((np, "einsum"),))
    for ctx, dP_T in zip(ctxs, fd_dP_T):
        geom = ctx.geom
        gaussmaps.grassmann_invariants(geom.P_T, geom.jet.chart_dim)
        gaussmaps.dgauss_check(geom, dP_T)
        bun = gaussmaps.projector_derivatives(geom)
        bun.residuals
        forms.pluriminimal_residual(geom)
        gaussmaps.half_isotropy_residual(geom, bun)
        if ctx.mean_curvature.center is not None:
            gaussmaps.gauss_section_check(geom, bun, ctx.mean_curvature)
    assert len(ctxs) == 10
    assert calls == []


def test_verify_computes_ppmc_once_per_fixture(monkeypatch):
    """The ppmc check and half-isotropy's ppmc term read one value, the
    fixture context's ppmc layer."""
    calls = _spy(monkeypatch, ((forms, "ppmc_residual"),))
    names = ["veronese", "cylinder"]
    rep = pipeline.run(pipeline.RunConfig(fixtures=names))
    result = {(r.fixture, r.check): r for r in rep.results}
    assert calls == ["ppmc_residual"] * len(names)
    for name in names:
        assert (result[name, "half-isotropy"].extras["ppmc"]
                == result[name, "ppmc"].residual)


def test_verify_and_family_verb_compute_r_once_per_geometry(monkeypatch,
                                                          tmp_path):
    """The structure sweep reads GeometryData.R, so a full verify calls
    kernels.gauss_curvature once per admitted fixture, and the family
    verb once.  Each admitted fixture's bundle checks and psi's split
    gate take one pass of the eleven bundle residuals (one
    _residual_block per block of grid points: one on 81 points, five on
    product-spheres' 625)."""
    calls = _spy(monkeypatch, ((kernels, "gauss_curvature"),
                               (gaussmaps, "_residual_block")))
    rep = pipeline.run(pipeline.RunConfig())
    admitted = {r.fixture for r in rep.results
                if r.check == "kaehler" and r.status == pipeline.PASS}
    assert len(admitted) == 10
    assert calls.count("gauss_curvature") == len(admitted)
    assert calls.count("_residual_block") == 9 + 5
    calls.clear()
    assert cli.main(["family", "--fixture", "catenoid", "--grid", "41",
                     "--sweep-csv", str(tmp_path / "sweep.csv"),
                     "--report", str(tmp_path / "family.txt")]) == 0
    assert calls == ["gauss_curvature"]


def test_verify_takes_svds_of_the_normal_stacks_only(hot_calls):
    """tau' takes its Gram route on every fixture, and a stack negligible
    against alpha is rank 0 without an SVD: N' of the plane, the sphere,
    product-spheres and the standard embedding, N° of the plane, the
    catenoid, the helicoid and the holomorphic curve.  12 of the 20
    normal stacks remain."""
    rep = pipeline.run(pipeline.RunConfig())
    assert rep.mismatches == [] and len(rep.results) == 220
    assert hot_calls.count("svd") == 12


def test_warm_verify_forms_no_product_with_a_zero_bundle(monkeypatch):
    """The residual pass forms dP_S P_S only for a source S that is not
    0, and psi's sweep its unitarity terms only for a P_N' that is not
    0: N' vanishes on the plane, the sphere, product-spheres and the
    standard embedding, where psi runs with no product of P_N', and N°
    on the plane, the catenoid, the helicoid and the holomorphic curve.
    Veronese, with no zero bundle, forms them all."""
    names = [r.name for r in registry()]
    for name in names:
        pipeline.run(pipeline.RunConfig(fixtures=[name]))
    seen = []
    for module, name in ((gaussmaps, "_right_product"),
                         (family, "_unitarity_terms")):
        def spy(*args, _f=getattr(module, name), _name=name):
            seen.append((_name, bool(args[-1].any())))
            return _f(*args)
        monkeypatch.setattr(module, name, spy)
    calls = {}
    for name in names:
        before = len(seen)
        rep = pipeline.run(pipeline.RunConfig(fixtures=[name]))
        assert rep.mismatches == []
        calls[name] = seen[before:]
    assert all(nonzero for _, nonzero in seen)
    # per block of grid points: tau', lift-grading's tau'' and each of
    # N° and N' that is not 0; the skewed plane builds no bundles
    for name in names:
        blocks = 5 if name == "product-spheres" else 1
        sources = (0 if name == "skewed-plane"
                   else 4 - len(ZERO_BUNDLES.get(name, ())))
        assert calls[name].count(("_right_product", True)) == (
            sources * blocks), name
    assert {name for name in names
            if ("_unitarity_terms", True) in calls[name]} == {
                "holomorphic-curve", "veronese"}


def test_bundle_layer_takes_no_derivative_of_a_negligible_stack(
        monkeypatch):
    """projector_derivatives contracts d alpha only for an N° or N'
    stack that is not negligible against alpha, and forms no d alpha on
    the plane, where both are."""
    cfg = pipeline.RunConfig()
    geoms = {r.name: pipeline.FixtureContext(r, cfg).geom
             for r in registry() if r.flags["kaehler"]}
    for geom in geoms.values():
        geom.alpha11, geom.alpha20
    calls = _spy(monkeypatch, ((gaussmaps, "alpha_derivative"),
                               (gaussmaps, "contract_slots")))
    for name, geom in geoms.items():
        before = len(calls)
        ranks = gaussmaps.projector_derivatives(geom).ranks
        live = sum(ranks[k] > 0 for k in ("N°", "N'"))
        assert calls[before:] == (["alpha_derivative"] * (live > 0)
                                  + ["contract_slots"] * live), name
    assert len(geoms) == 10
    assert calls.count("alpha_derivative") == 9


def test_verify_and_large_geometry_call_no_inverse(monkeypatch):
    calls = _spy(monkeypatch, ((np.linalg, "inv"),))
    rep = pipeline.run(pipeline.RunConfig())
    assert rep.mismatches == [] and len(rep.results) == 220
    catenoid = get_immersion("catenoid")
    forms.compute_geometry(catenoid, catenoid.grid(201))
    assert calls == []


def test_structure_sweep_calls_no_einsum(monkeypatch):
    cfg = pipeline.RunConfig()
    geoms = [pipeline.FixtureContext(rec, cfg).geom for rec in registry()]
    catenoid = get_immersion("catenoid")
    geoms.append(forms.compute_geometry(catenoid, catenoid.grid(201)))
    for geom in geoms:
        geom.R, geom.RN
    calls = _spy(monkeypatch, ((np, "einsum"),))
    for geom in geoms:
        family.structure_equation_residuals(geom, family.THETA_SWEEP)
    assert len(geoms) == 12
    assert calls == []


def test_second_warm_verify_pass_calls_no_kron(monkeypatch):
    pipeline.run(pipeline.RunConfig())
    calls = _spy(monkeypatch, ((np, "kron"),))
    rep = pipeline.run(pipeline.RunConfig())
    assert rep.mismatches == [] and len(rep.results) == 220
    assert calls == []


CHART_CONSTANTS = ((chartcalc, "type_rows"), (chartcalc, "rotation_parts"),
                   (family, "_codazzi_map"), (family, "_gauss_components"),
                   (family, "_pair_parts"), (kaehler, "_sublemma_rows"))


@pytest.mark.parametrize("module,name", CHART_CONSTANTS,
                         ids=[name for _, name in CHART_CONSTANTS])
@pytest.mark.parametrize("m", [1, 2])
def test_chart_constants_are_built_once_and_read_only(module, name, m):
    constant = getattr(module, name)
    first = constant(m)
    assert constant(m) is first
    for a in first if isinstance(first, tuple) else (first,):
        # real, the slot pairs of type_rows too: a real form meets each
        # in a real product, never cast to complex
        assert not np.iscomplexobj(a)
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


# tracemalloc peaks of one warm call on product-spheres, in MiB, set
# above the measured peaks (numpy 2.4): sublemma 3.63, build_psi 1.51
# (its N' is 0, so the sweep forms no unitarity terms) and 1.70 with
# P_N° standing in for P_N' (every leg formed), the shared derivative
# pass behind superhorizontality 0.92, ppmc and codazzi 0.75 each,
# gauss-levi 0.38, and the structure sweep 2.75.  Over the full grid
# they read 17.2, 7.33, 3.43 (superhorizontality alone), 3.66, 3.66,
# 1.83 and 7.39 MiB, and the structure sweep with its full-grid Codazzi
# array 4.81 MiB.
PEAK_BOUNDS_MIB = {"sublemma": 4.0, "psi": 2.0, "psi-every-leg": 2.0,
                   "superhorizontality": 1.0, "ppmc": 1.0, "codazzi": 1.0,
                   "gauss-levi": 0.5, "structure-equations": 3.5}


@pytest.fixture(scope="module")
def product_spheres():
    ctx = pipeline.FixtureContext(get_fixture("product-spheres"),
                                  pipeline.RunConfig())
    assert len(ctx.pts) == 625
    return ctx


@pytest.mark.parametrize("body", sorted(PEAK_BOUNDS_MIB))
def test_blocked_bodies_form_no_large_temporary(product_spheres, body):
    geom, bun = product_spheres.geom, product_spheres.bundles
    bun.Nc              # derived before any measurement
    every_leg = copy.copy(bun)
    every_leg.Np = bun.No

    def uncached(bun):
        """bun without its cached residual pass, so that each read of
        the superhorizontality entry runs the pass afresh."""
        out = copy.copy(bun)
        out.__dict__.pop("residuals", None)
        return out

    call = {
        "sublemma": lambda: kaehler.sublemma_residual(geom),
        "psi": lambda: family.build_psi(geom, bun,
                                        [*family.THETA_SWEEP, np.pi]),
        "psi-every-leg": lambda: family.build_psi(
            geom, every_leg, [*family.THETA_SWEEP, np.pi]),
        "superhorizontality": lambda: uncached(bun).residuals[
            "superhorizontality"],
        "ppmc": lambda: forms.ppmc_residual(geom),
        "codazzi": lambda: forms.codazzi_residual(geom),
        "gauss-levi": lambda: gaussmaps.gauss_levi_residual(geom),
        "structure-equations": lambda: family.structure_equation_residuals(
            geom, family.THETA_SWEEP),
    }[body]
    assert _warm_peak(call) < PEAK_BOUNDS_MIB[body] * 2 ** 20


def _warm_peak(call):
    """tracemalloc peak in bytes of the second of two calls: the first
    builds the layers' lazy fields and the chart constants."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jets_span_their_supports_only(product_spheres):
    """Each sphere of product-spheres depends on two of the four chart
    coordinates, so its Jets carry 2^3 third derivatives, not 4^3: the
    order-3 jet peaks at 2.87 MiB (numpy 2.4), where jets over every
    coordinate took 4.95 MiB.  The catenoid's geometry at 201^2 points
    peaks at 45.31 MiB, as it did with jets over every coordinate."""
    imm, pts = product_spheres.rec.immersion, product_spheres.pts
    assert _warm_peak(lambda: imm.jet_fn(pts, 3)) < 3.5 * 2 ** 20
    catenoid = get_immersion("catenoid")
    grid = catenoid.grid(201)
    assert _warm_peak(lambda: forms.compute_geometry(catenoid, grid)) <= (
        45.32 * 2 ** 20)
