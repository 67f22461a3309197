"""Check runner: executes the verification checks in dependency order
(kaehler -> forms -> gauss maps -> family -> flag lift) per fixture and
compares PASS/FAIL statuses against each fixture's expected-flag ledger.
"""

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import family, flags, forms, gaussmaps, kaehler
from .chartcalc import convergence_order
from .fixtures import FixtureRecord, get_fixture, fixture_names

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
SKIPPED, ERROR = "SKIPPED", "ERROR"


@dataclass
class RunConfig:
    fixtures: List[str] = field(default_factory=fixture_names)
    checks: List[str] = field(default_factory=lambda: ["all"])
    grid: int = 9
    h: float = 1e-4
    tol_tier1: float = 1e-8
    tol_tier2: float = 1e-5
    tol_tier3: float = 1e-3     # reported only: no check reads it
    thetas: List[float] = field(default_factory=lambda: list(family.THETA_SWEEP))
    seed: int = 0               # reported only: no check reads it

    def __post_init__(self):
        if self.grid < 5:
            raise ValueError("grid must be at least 5 per axis")
        for t in (self.tol_tier1, self.tol_tier2, self.tol_tier3):
            if t <= 0:
                raise ValueError("tolerances must be positive")


@dataclass
class CheckResult:
    fixture: str
    check: str
    status: str
    residual: Optional[float]
    threshold: Optional[float]
    expected: Optional[str]          # PASS / FAIL / None
    extras: Dict[str, float] = field(default_factory=dict)
    runtime: float = 0.0
    message: str = ""

    @property
    def mismatch(self) -> bool:
        return (self.expected is not None
                and self.status in (PASS, FAIL, INCONCLUSIVE, ERROR)
                and self.status != self.expected)


def classify(residual: float, tol: float) -> str:
    """PASS below the tier tolerance, FAIL above 100x it, otherwise
    INCONCLUSIVE (prevents silent misclassification near thresholds)."""
    if residual < tol:
        return PASS
    if residual > 100.0 * tol:
        return FAIL
    return INCONCLUSIVE


def _ledger(flag: str):
    """PASS or FAIL as the ledger flag says; None where it is unknown."""
    return lambda flags: (None if flags.get(flag) is None
                          else PASS if flags[flag] else FAIL)


def _pass_if(flag: str):
    """PASS where the ledger flag holds; no expectation otherwise."""
    return lambda flags: PASS if flags.get(flag) else None


def _always(flags) -> str:
    return PASS


class FixtureContext:
    """The geometry of one fixture's point set, shared by all its checks.

    Each layer is computed on first use, once, from the layer before it:

        geom -> bundles (projectors, their FD derivatives dP)
             -> mean_curvature

    The point set is the fixture's own grid (rec.grid_per_axis) or else
    cfg.grid points per chart axis.  `eq4` reads dP["P_T"] from the
    bundle layer, so a RankError of the bundles also shows as an `eq4`
    ERROR.  The shifted geometries behind dP are not kept.
    """

    def __init__(self, rec: FixtureRecord, cfg: RunConfig):
        self.rec = rec
        self.cfg = cfg
        self.pts = rec.immersion.grid(rec.grid_per_axis or cfg.grid,
                                      margin=0.02)

    @functools.cached_property
    def geom(self) -> forms.GeometryData:
        return forms.compute_geometry(self.rec.immersion, self.pts)

    @functools.cached_property
    def bundles(self):
        return gaussmaps.projector_derivatives(self.geom, h=self.cfg.h)

    @functools.cached_property
    def mean_curvature(self) -> forms.MeanCurvatureData:
        return forms.mean_curvature_and_sphere_reduction(self.geom)


# ------------------------------------------------------------ check bodies
# each returns (residual, threshold, extras); the expected status comes
# from EXPECTED below

def _chk_kaehler(ctx: FixtureContext):
    geom = ctx.geom
    orth, par = kaehler.kaehler_residual(geom.imm.J, geom.g, geom.Gamma)
    return (max(orth, par), ctx.cfg.tol_tier1,
            {"orthogonality": orth, "parallelity": par})


def _chk_jets(ctx: FixtureContext):
    order = convergence_order(ctx.rec.immersion, ctx.pts)
    # status from the shortfall below the expected 2nd order
    res = max(0.0, 1.9 - order)
    return (res, 1e-6, {"order": order})


def _chk_grassmann(ctx: FixtureContext):
    P = ctx.geom.tangent_projector()
    idem, symm, tr = gaussmaps.grassmann_invariants(
        P, 2 * ctx.rec.immersion.complex_dim)
    return (max(idem, symm, tr), 1e-10,
            {"idempotency": idem, "symmetry": symm, "trace": tr})


def _chk_eq4(ctx: FixtureContext):
    _, dP = ctx.bundles
    res = gaussmaps.dgauss_check(ctx.geom, dP["P_T"])
    return (res, ctx.cfg.tol_tier2, {})


def _chk_codazzi(ctx: FixtureContext):
    res = forms.codazzi_residual(ctx.geom)
    return (res, ctx.cfg.tol_tier2, {})


def _chk_ppmc(ctx: FixtureContext):
    res = forms.ppmc_residual(ctx.geom)
    return (res, ctx.cfg.tol_tier1, {})


def _chk_gauss_levi(ctx: FixtureContext):
    res = gaussmaps.gauss_levi_residual(ctx.geom)
    return (res, ctx.cfg.tol_tier1, {})


def _chk_pluriminimal(ctx: FixtureContext):
    bun, dP = ctx.bundles
    r1, r2 = gaussmaps.holomorphicity_residuals(ctx.geom, bun, dP)
    return (r1, ctx.cfg.tol_tier1, {"frame_route": r2})


def _chk_structure_equations(ctx: FixtureContext):
    worst = {"gauss": 0.0, "codazzi": 0.0, "ricci": 0.0}
    for th in ctx.cfg.thetas:
        gr, cr, rr = family.structure_equation_residuals(ctx.geom, th)
        worst["gauss"] = max(worst["gauss"], gr)
        worst["codazzi"] = max(worst["codazzi"], cr)
        worst["ricci"] = max(worst["ricci"], rr)
    return (max(worst.values()), ctx.cfg.tol_tier1, worst)


def _chk_rn_tprime(ctx: FixtureContext):
    res = kaehler.rn_tprime_residual(ctx.geom.RN,
                                     ctx.rec.immersion.complex_dim)
    return (res, ctx.cfg.tol_tier1, {})


def _chk_sublemma(ctx: FixtureContext):
    res = kaehler.sublemma_residual(ctx.geom)
    return (res, ctx.cfg.tol_tier2, {})


def _chk_superhorizontality(ctx: FixtureContext):
    bun, dP = ctx.bundles
    res = gaussmaps.superhorizontality_residual(bun, dP)
    return (res, ctx.cfg.tol_tier2, {})


def _chk_lift_grading(ctx: FixtureContext):
    bun, dP = ctx.bundles
    res = flags.lift_grading_residual(bun, dP)
    return (res, ctx.cfg.tol_tier2, {})


def _chk_half_isotropy(ctx: FixtureContext):
    bun, _ = ctx.bundles
    t1, t2 = gaussmaps.half_isotropy_residual(ctx.geom, bun)
    return (max(t1, t2), ctx.cfg.tol_tier1,
            {"alpha20_in_No": t1, "ppmc": t2})


def _chk_isotropy(ctx: FixtureContext):
    bun, dP = ctx.bundles
    rep = gaussmaps.isotropy_decomposition(
        ctx.geom, bun, dP, tol_orth=ctx.cfg.tol_tier1,
        tol_par=ctx.cfg.tol_tier2)
    # normalize both residuals to their own tiers for one status scalar
    scaled = max(rep.orthogonality / ctx.cfg.tol_tier1,
                 rep.parallelity / ctx.cfg.tol_tier2)
    extras = {"orthogonality": rep.orthogonality,
              "parallelity": rep.parallelity}
    extras.update({f"rank {k}": float(v) for k, v in rep.ranks.items()})
    return (scaled, 1.0, extras)


def _chk_chain(ctx: FixtureContext):
    bun, dP = ctx.bundles
    ch = gaussmaps.differential_chain_residuals(ctx.geom, bun, dP)
    return (max(ch.values()), ctx.cfg.tol_tier2, ch)


def _chk_sphere_reduction(ctx: FixtureContext):
    mc = ctx.mean_curvature
    extras = {"kappa": mc.kappa, "off_identity": mc.off_identity,
              "center_spread": mc.center_spread,
              "radius_spread": mc.radius_spread}
    if mc.radius is not None:
        extras["radius"] = mc.radius
    res = mc.off_identity if abs(mc.kappa) > ctx.cfg.tol_tier1 else np.inf
    return (res, ctx.cfg.tol_tier1, extras)


def _chk_section(ctx: FixtureContext):
    mc = ctx.mean_curvature
    if not mc.spherical:
        if ctx.rec.flags.get("spherical"):
            return (np.inf, ctx.cfg.tol_tier2, {"note_not_spherical": 1.0})
        raise _Skip("not spherical; no normal section to check")
    bun, _ = ctx.bundles
    normality, tangency, spread = gaussmaps.gauss_section_check(
        ctx.geom, bun, mc)
    return (max(normality, tangency, spread), ctx.cfg.tol_tier2,
            {"normality": normality, "tau_prime_tangency": tangency,
             "radius_spread": spread})


def _chk_psi(ctx: FixtureContext):
    if not ctx.rec.flags.get("isotropic"):
        raise _Skip("psi_theta needs the isotropy decomposition")
    bun, _ = ctx.bundles
    worst = 0.0
    extras = {}
    for th in ctx.cfg.thetas:
        psi = family.build_psi(ctx.geom, bun, th)
        worst = max(worst, psi.eq8_residual, psi.unitarity)
    psi2 = family.build_psi(ctx.geom, bun, np.pi / 2)
    psip = family.build_psi(ctx.geom, bun, np.pi)
    extras["eq8_and_unitarity"] = worst
    extras["psi_pi_minus_identity"] = psip.identity_on_N
    extras["minus_one_dim at pi/2"] = float(psi2.minus_one_dim)
    worst = max(worst, psip.identity_on_N)
    return (worst, ctx.cfg.tol_tier1, extras)


def _chk_closedness(ctx: FixtureContext):
    res = family.closedness_residual(ctx.geom, np.pi / 2)
    return (res, ctx.cfg.tol_tier1, {})


class _Skip(Exception):
    pass


# ordered: later checks depend on earlier classifications
CHECKS = {
    "kaehler": _chk_kaehler,
    "jets": _chk_jets,
    "grassmann": _chk_grassmann,
    "eq4": _chk_eq4,
    "codazzi": _chk_codazzi,
    "ppmc": _chk_ppmc,
    "gauss-levi": _chk_gauss_levi,
    "pluriminimal": _chk_pluriminimal,
    "structure-equations": _chk_structure_equations,
    "rn-tprime": _chk_rn_tprime,
    "sublemma": _chk_sublemma,
    "superhorizontality": _chk_superhorizontality,
    "lift-grading": _chk_lift_grading,
    "half-isotropy": _chk_half_isotropy,
    "isotropy": _chk_isotropy,
    "chain": _chk_chain,
    "sphere-reduction": _chk_sphere_reduction,
    "section": _chk_section,
    "psi": _chk_psi,
    "closedness": _chk_closedness,
}

# check -> its expected status given the fixture's ledger flags; read
# before the body runs, so a check that raises still counts against it
EXPECTED = {
    "kaehler": _ledger("kaehler"),
    "jets": _always,
    "grassmann": _always,
    "eq4": _always,
    "codazzi": _always,
    "ppmc": _ledger("ppmc"),
    "gauss-levi": _ledger("ppmc"),
    "pluriminimal": _ledger("pluriminimal"),
    "structure-equations": _ledger("ppmc"),
    "rn-tprime": _pass_if("ppmc"),
    "sublemma": _pass_if("ppmc"),
    "superhorizontality": _always,
    "lift-grading": _always,
    "half-isotropy": _ledger("half_isotropic"),
    "isotropy": _ledger("isotropic"),
    "chain": _pass_if("isotropic"),
    "sphere-reduction": _ledger("spherical"),
    "section": _always,
    "psi": _always,
    "closedness": _ledger("pluriminimal"),
}


@dataclass
class Report:
    config: RunConfig
    results: List[CheckResult]
    version: str = ""

    @property
    def mismatches(self) -> List[CheckResult]:
        return [r for r in self.results if r.mismatch]


def run(config: RunConfig, extra_records=()) -> Report:
    """Run the selected checks; extra_records are FixtureRecord objects
    (for example from a fixture definition file) checked in addition to
    the named registry fixtures."""
    from . import __version__
    unknown = [c for c in config.checks if c not in CHECKS and c != "all"]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; "
                         f"available: {list(CHECKS)}")
    selected = list(CHECKS) if "all" in config.checks else \
        [c for c in CHECKS if c in config.checks]
    loaded = {rec.name: rec for rec in extra_records}
    names = list(config.fixtures) + [n for n in loaded
                                     if n not in config.fixtures]
    results: List[CheckResult] = []
    for name in names:
        rec = loaded.get(name) or get_fixture(name)  # raises on unknown
        ctx = FixtureContext(rec, config)
        admitted = True
        for check in selected:
            t0 = time.perf_counter()
            if check != "kaehler" and not admitted:
                results.append(CheckResult(
                    fixture=name, check=check, status=SKIPPED,
                    residual=None, threshold=None, expected=None,
                    message="fixture not admitted as Kaehler"))
                continue
            expected = EXPECTED[check](rec.flags)
            try:
                res, tol, extras = CHECKS[check](ctx)
                results.append(CheckResult(
                    fixture=name, check=check, status=classify(res, tol),
                    residual=res, threshold=tol, expected=expected,
                    extras=extras, runtime=time.perf_counter() - t0))
            except _Skip as s:
                results.append(CheckResult(
                    fixture=name, check=check, status=SKIPPED,
                    residual=None, threshold=None, expected=None,
                    message=str(s), runtime=time.perf_counter() - t0))
            except Exception as e:  # honest error reporting
                results.append(CheckResult(
                    fixture=name, check=check, status=ERROR,
                    residual=None, threshold=None, expected=expected,
                    message=f"{type(e).__name__}: {e}",
                    runtime=time.perf_counter() - t0))
            if check == "kaehler" and results[-1].status != PASS:
                admitted = False
    return Report(config=config, results=results, version=__version__)
