"""Check runner: executes the verification checks in dependency order
(kaehler -> forms -> gauss maps -> family -> flag lift) per fixture and
compares PASS/FAIL statuses against each fixture's expected-flag ledger.

Each check is declared once, as a row of TABLE: its name, its body
(context -> residual and extras), its threshold (the strict tier, the
finite-difference tier, or a fixed value) and its ledger rule (fixture
flags -> expected status).  CHECKS maps each name to its body; the
runner calls the bodies through it and reads the threshold and the
expectation from the row.
"""

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import family, forms, gaussmaps, kaehler
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
    thetas: List[float] = field(default_factory=lambda: list(family.THETA_SWEEP))

    def __post_init__(self):
        if self.grid < 5:
            raise ValueError("grid must be at least 5 per axis")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("the step h must be finite and positive")
        for t in (self.tol_tier1, self.tol_tier2):
            if not (np.isfinite(t) and t > 0):
                raise ValueError("tolerances must be finite and positive")
        if len(self.thetas) == 0:
            raise ValueError("the angle list is empty")
        if not np.all(np.isfinite(self.thetas)):
            raise ValueError("angles must be finite")


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
    """PASS below the threshold, FAIL above 100x it, otherwise
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

        geom -> ppmc (forms.ppmc_residual, read by ppmc and half-isotropy)
             -> bundles (one gaussmaps.Bundles: each projector with its
                    closed-form chart derivative)
                -> isotropy (the N' + N° + N'' decomposition)
             -> mean_curvature

    The point set is the fixture's own grid (rec.grid_per_axis) or else
    cfg.grid points per chart axis; it is the only grid whose geometry
    is built.  `eq4` takes its own central differences of the tangent
    projector at step cfg.h and does not read the bundle layer.
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
    def ppmc(self) -> float:
        return forms.ppmc_residual(self.geom)

    @functools.cached_property
    def bundles(self) -> gaussmaps.Bundles:
        return gaussmaps.projector_derivatives(self.geom)

    @functools.cached_property
    def isotropy(self) -> gaussmaps.IsotropyReport:
        return gaussmaps.isotropy_decomposition(self.bundles)

    @functools.cached_property
    def mean_curvature(self) -> forms.MeanCurvatureData:
        return forms.mean_curvature_and_sphere_reduction(self.geom)


# ------------------------------------------------------------ check bodies
# each returns (residual, extras); its threshold and expected status are
# declared in TABLE below.  A body folds its sub-residuals with _fold.

def _fold(*residuals: float) -> float:
    """The largest sub-residual, NaN if any is NaN (Python's max drops a
    NaN that does not come first)."""
    return float(np.max(residuals))


def _chk_kaehler(ctx: FixtureContext):
    geom = ctx.geom
    orth, par = kaehler.kaehler_residual(geom.imm.J, geom.g, geom.Gamma)
    return _fold(orth, par), {"orthogonality": orth, "parallelity": par}


def _chk_jets(ctx: FixtureContext):
    order = convergence_order(ctx.rec.immersion, ctx.pts, ctx.geom.jet.d1)
    # status from the shortfall below the expected 2nd order
    return _fold(0.0, 1.9 - order), {"order": order}


def _chk_grassmann(ctx: FixtureContext):
    idem, symm, tr = gaussmaps.grassmann_invariants(
        ctx.geom.P_T, 2 * ctx.rec.immersion.complex_dim)
    return (_fold(idem, symm, tr),
            {"idempotency": idem, "symmetry": symm, "trace": tr})


def _chk_eq4(ctx: FixtureContext):
    dP_T = gaussmaps.fd_tangent_projector_derivatives(ctx.geom, ctx.cfg.h)
    return gaussmaps.dgauss_check(ctx.geom, dP_T), {}


def _chk_codazzi(ctx: FixtureContext):
    return forms.codazzi_residual(ctx.geom), {}


def _chk_ppmc(ctx: FixtureContext):
    return ctx.ppmc, {}


def _chk_gauss_levi(ctx: FixtureContext):
    return gaussmaps.gauss_levi_residual(ctx.geom), {}


def _chk_pluriminimal(ctx: FixtureContext):
    r1, r2 = gaussmaps.holomorphicity_residuals(ctx.geom, ctx.bundles)
    return r1, {"frame_route": r2}


def _chk_structure_equations(ctx: FixtureContext):
    res = family.structure_equation_residuals(ctx.geom, ctx.cfg.thetas)
    worst = dict(zip(("gauss", "codazzi", "ricci"),
                     res.max(axis=0, initial=0.0).tolist()))
    return _fold(*worst.values()), worst


def _chk_rn_tprime(ctx: FixtureContext):
    return kaehler.rn_tprime_residual(ctx.geom.RN,
                                      ctx.rec.immersion.complex_dim), {}


def _chk_sublemma(ctx: FixtureContext):
    return kaehler.sublemma_residual(ctx.geom), {}


def _chk_superhorizontality(ctx: FixtureContext):
    return gaussmaps.superhorizontality_residual(ctx.bundles), {}


def _chk_lift_grading(ctx: FixtureContext):
    return gaussmaps.lift_grading_residual(ctx.bundles), {}


def _chk_half_isotropy(ctx: FixtureContext):
    t1 = gaussmaps.half_isotropy_residual(ctx.geom, ctx.bundles)
    return _fold(t1, ctx.ppmc), {"alpha20_in_No": t1, "ppmc": ctx.ppmc}


def _chk_isotropy(ctx: FixtureContext):
    rep = ctx.isotropy
    extras = {"orthogonality": rep.orthogonality,
              "parallelity": rep.parallelity}
    extras.update({f"rank {k}": float(v) for k, v in rep.ranks.items()})
    return _fold(rep.orthogonality, rep.parallelity), extras


def _chk_chain(ctx: FixtureContext):
    ch = gaussmaps.differential_chain_residuals(ctx.geom, ctx.bundles)
    return _fold(*ch.values()), ch


def _chk_sphere_reduction(ctx: FixtureContext):
    mc = ctx.mean_curvature
    extras = {"kappa": mc.kappa, "off_identity": mc.off_identity,
              "center_spread": mc.center_spread,
              "radius_spread": mc.radius_spread}
    if mc.radius is not None:
        extras["radius"] = mc.radius
    # a vanishing mean curvature has no sphere to reduce to
    res = mc.off_identity if abs(mc.kappa) > ctx.cfg.tol_tier1 else np.inf
    return res, extras


def _chk_section(ctx: FixtureContext):
    mc = ctx.mean_curvature
    if not mc.spherical:
        if ctx.rec.flags.get("spherical"):
            return np.inf, {"note_not_spherical": 1.0}
        raise _Skip("not spherical; no normal section to check")
    normality, tangency, spread = gaussmaps.gauss_section_check(
        ctx.geom, ctx.bundles, mc)
    return (_fold(normality, tangency, spread),
            {"normality": normality, "tau_prime_tangency": tangency,
             "radius_spread": spread})


def _chk_psi(ctx: FixtureContext):
    # psi_theta is built on the decomposition, so it runs exactly where
    # the isotropy check passes
    rep = ctx.isotropy
    if not _fold(rep.orthogonality, rep.parallelity) < ctx.cfg.tol_tier1:
        raise _Skip("psi_theta needs the isotropy decomposition")
    # one sweep over the angles and the full turn
    res, minus_dim = family.build_psi(ctx.geom, ctx.bundles,
                                      [*ctx.cfg.thetas, np.pi])
    worst = float(res[:-1, :2].max(initial=0.0))
    full_turn = float(res[-1, 2])
    extras = {"eq8_and_unitarity": worst,
              "psi_pi_minus_identity": full_turn,
              "minus_one_dim at pi/2": float(minus_dim)}
    return _fold(worst, full_turn), extras


def _chk_closedness(ctx: FixtureContext):
    return family.closedness_residual(ctx.geom, np.pi / 2), {}


class _Skip(Exception):
    pass


TIER1, TIER2 = "tier1", "tier2"


class Check(NamedTuple):
    """One row of the check table."""
    name: str
    body: Callable[[FixtureContext], Tuple[float, Dict[str, float]]]
    threshold: Union[str, float]   # TIER1, TIER2 or a fixed value
    expect: Callable[[dict], Optional[str]]   # ledger flags -> status

    def tolerance(self, cfg: RunConfig) -> float:
        if isinstance(self.threshold, str):
            return getattr(cfg, f"tol_{self.threshold}")
        return self.threshold


# ordered: later checks depend on earlier classifications.  The expected
# status is read before the body runs, so a check that raises still
# counts against it.
TABLE = (
    Check("kaehler", _chk_kaehler, TIER1, _ledger("kaehler")),
    Check("jets", _chk_jets, 1e-6, _always),
    Check("grassmann", _chk_grassmann, 1e-10, _always),
    Check("eq4", _chk_eq4, TIER2, _always),
    Check("codazzi", _chk_codazzi, TIER2, _always),
    Check("ppmc", _chk_ppmc, TIER1, _ledger("ppmc")),
    Check("gauss-levi", _chk_gauss_levi, TIER1, _ledger("ppmc")),
    Check("pluriminimal", _chk_pluriminimal, TIER1,
          _ledger("pluriminimal")),
    Check("structure-equations", _chk_structure_equations, TIER1,
          _ledger("ppmc")),
    Check("rn-tprime", _chk_rn_tprime, TIER1, _pass_if("ppmc")),
    Check("sublemma", _chk_sublemma, TIER2, _pass_if("ppmc")),
    Check("superhorizontality", _chk_superhorizontality, TIER1, _always),
    Check("lift-grading", _chk_lift_grading, TIER1, _always),
    Check("half-isotropy", _chk_half_isotropy, TIER1,
          _ledger("half_isotropic")),
    Check("isotropy", _chk_isotropy, TIER1, _ledger("isotropic")),
    Check("chain", _chk_chain, TIER1, _pass_if("isotropic")),
    Check("sphere-reduction", _chk_sphere_reduction, TIER1,
          _ledger("spherical")),
    Check("section", _chk_section, TIER2, _always),
    Check("psi", _chk_psi, TIER1, _always),
    Check("closedness", _chk_closedness, TIER1, _ledger("pluriminimal")),
)

# name -> body; the runner calls each body through this dict
CHECKS = {c.name: c.body for c in TABLE}


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
    the named registry fixtures, each under a name no other has."""
    from . import __version__
    unknown = [c for c in config.checks if c not in CHECKS and c != "all"]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; "
                         f"available: {list(CHECKS)}")
    selected = [c for c in TABLE
                if "all" in config.checks or c.name in config.checks]
    extra = [rec.name for rec in extra_records]
    for name in extra:
        if name in fixture_names() or extra.count(name) > 1:
            raise ValueError(f"fixture {name!r} is defined twice")
    loaded = dict(zip(extra, extra_records))
    names = list(config.fixtures) + [n for n in loaded
                                     if n not in config.fixtures]
    results: List[CheckResult] = []
    for name in names:
        rec = loaded.get(name) or get_fixture(name)  # raises on unknown
        ctx = FixtureContext(rec, config)
        admitted = True
        for row in selected:
            check = row.name
            t0 = time.perf_counter()
            expected = row.expect(rec.flags)
            tol = row.tolerance(config)
            try:
                if check != "kaehler" and not admitted:
                    raise _Skip("fixture not admitted as Kaehler")
                res, extras = CHECKS[check](ctx)
                # a NaN compares false with every threshold
                nan = [k for k, v in [("residual", res), *extras.items()]
                       if np.isnan(v)]
                results.append(CheckResult(
                    fixture=name, check=check,
                    status=ERROR if nan else classify(res, tol),
                    residual=res, threshold=tol, expected=expected,
                    extras=extras, runtime=time.perf_counter() - t0,
                    message=f"NaN in {', '.join(nan)}" if nan else ""))
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
