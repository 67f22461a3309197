"""Check runner: evaluates the selected checks on each fixture and
compares PASS/FAIL statuses against each fixture's expected-flag ledger.

Each check is declared once, as a row of TABLE: its name, its body
(context -> residual and extras), its threshold (a number: the strict
tier TIER1, the finite-difference tier TIER2, or a value of its own),
its ledger rule (fixture flags -> expected status) and its gates.  CHECKS
maps each name to its body; the runner calls the bodies through it and
reads the rest from the row, so no result depends on the selection.
"""

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import family, forms, gaussmaps, kaehler
from .chartcalc import convergence_order
from .fixtures import FixtureRecord, get_fixture, fixture_names

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
SKIPPED, ERROR = "SKIPPED", "ERROR"

# the strict tier of every residual read from the jets in closed form,
# and the finite-difference tier of eq4's central differences at step h
TIER1, TIER2 = 1e-8, 1e-5


@dataclass
class RunConfig:
    fixtures: List[str] = field(default_factory=fixture_names)
    checks: List[str] = field(default_factory=lambda: ["all"])
    grid: int = 9
    h: float = 1e-4
    thetas: List[float] = field(default_factory=lambda: list(family.THETA_SWEEP))

    def __post_init__(self):
        if self.grid < 5:
            raise ValueError("grid must be at least 5 per axis")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("the step h must be finite and positive")
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
                -> its residuals (one pass over blocks of grid points
                       for the eleven residuals of superhorizontality,
                       lift-grading, pluriminimal's frame route, the
                       isotropy orthogonality and parallelity and the
                       chain; cached on the Bundles, whose table the
                       check bodies and psi's gate index)
             -> mean_curvature (its spherical flag gates section)

    result(row) is the row's result, evaluated once: the runner reads
    it for each selected row, the admission gate the kaehler row's.

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
        self._results: Dict[str, CheckResult] = {}

    def result(self, row: "Check") -> CheckResult:
        if row.name not in self._results:
            self._results[row.name] = _evaluate(row, self)
        return self._results[row.name]

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
    # sup |alpha^{(1,1)}| and the (0,1)-derivative of tau' escaping
    # tau': both vanish iff the flag lift is holomorphic
    route2 = ctx.bundles.residuals["frame_route"]
    return forms.pluriminimal_residual(ctx.geom), {"frame_route": route2}


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
    return ctx.bundles.residuals["superhorizontality"], {}


def _chk_lift_grading(ctx: FixtureContext):
    return ctx.bundles.residuals["lift-grading"], {}


def _chk_half_isotropy(ctx: FixtureContext):
    t1 = gaussmaps.half_isotropy_residual(ctx.geom, ctx.bundles)
    return _fold(t1, ctx.ppmc), {"alpha20_in_No": t1, "ppmc": ctx.ppmc}


def _isotropy(bun: gaussmaps.Bundles):
    """The table's (orthogonality, parallelity) of N^c = N' + N° + N'',
    the parallelity the fold of those of N' and N°: the residual of N''
    is the entrywise conjugate of that of N', with the same max."""
    res = bun.residuals
    return (res["orthogonality"],
            _fold(res["parallelity N'"], res["parallelity N°"]))


def _chk_isotropy(ctx: FixtureContext):
    orth, par = _isotropy(ctx.bundles)
    extras = {"orthogonality": orth, "parallelity": par}
    extras.update({f"rank {k}": float(v)
                   for k, v in ctx.bundles.ranks.items()})
    return _fold(orth, par), extras


def _chk_chain(ctx: FixtureContext):
    res = ctx.bundles.residuals
    ch = {arrow: res[arrow] for arrow in gaussmaps.CHAIN}
    return _fold(*ch.values()), ch


def _chk_sphere_reduction(ctx: FixtureContext):
    mc = ctx.mean_curvature
    extras = {"kappa": mc.kappa, "off_identity": mc.off_identity,
              "center_spread": mc.center_spread,
              "radius_spread": mc.radius_spread}
    if mc.radius is not None:
        extras["radius"] = mc.radius
    # kappa within the tolerance of mc.spherical: no sphere to reduce to
    res = mc.off_identity if abs(mc.kappa) > forms.SPHERE_TOL else np.inf
    return res, extras


def _chk_section(ctx: FixtureContext):
    normality, tangency, spread = gaussmaps.gauss_section_check(
        ctx.geom, ctx.bundles, ctx.mean_curvature)
    return (_fold(normality, tangency, spread),
            {"normality": normality, "tau_prime_tangency": tangency,
             "radius_spread": spread})


def _chk_psi(ctx: FixtureContext):
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


def _admitted(ctx: FixtureContext):
    # every check but kaehler assumes the Kaehler condition
    if ctx.result(_KAEHLER).status != PASS:
        return "fixture not admitted as Kaehler"


def _spherical(ctx: FixtureContext):
    # a wrong "spherical" ledger mismatches on sphere-reduction
    if not ctx.mean_curvature.spherical:
        return "not spherical; no normal section to check"


def _isotropy_split(ctx: FixtureContext):
    # psi_theta is built on the decomposition, so it runs exactly where
    # the isotropy check passes, on the same entries of the table; a NaN
    # there is an ERROR of psi, as of isotropy, not a skip
    split = _fold(*_isotropy(ctx.bundles))
    if np.isnan(split):
        raise ValueError("NaN in the isotropy decomposition")
    if not split < TIER1:
        return "psi_theta needs the isotropy decomposition"


class Check(NamedTuple):
    """One row of the check table."""
    name: str
    body: Callable[[FixtureContext], Tuple[float, Dict[str, float]]]
    threshold: float
    expect: Callable[[dict], Optional[str]]   # ledger flags -> status
    gates: Tuple[Callable, ...] = (_admitted,)  # ctx -> skip note or None


_KAEHLER = Check("kaehler", _chk_kaehler, TIER1, _ledger("kaehler"), ())

# in report order: a row's gates, not its place, decide where it runs,
# so its result on a fixture is the same whatever else is selected
TABLE = (
    _KAEHLER,
    Check("jets", _chk_jets, 1e-6, _always),
    Check("grassmann", _chk_grassmann, 1e-10, _always),
    Check("eq4", _chk_eq4, TIER2, _always),
    Check("codazzi", _chk_codazzi, TIER1, _always),
    Check("ppmc", _chk_ppmc, TIER1, _ledger("ppmc")),
    Check("gauss-levi", _chk_gauss_levi, TIER1, _ledger("ppmc")),
    Check("pluriminimal", _chk_pluriminimal, TIER1,
          _ledger("pluriminimal")),
    Check("structure-equations", _chk_structure_equations, TIER1,
          _ledger("ppmc")),
    Check("rn-tprime", _chk_rn_tprime, TIER1, _pass_if("ppmc")),
    Check("sublemma", _chk_sublemma, TIER1, _pass_if("ppmc")),
    Check("superhorizontality", _chk_superhorizontality, TIER1, _always),
    Check("lift-grading", _chk_lift_grading, TIER1, _always),
    Check("half-isotropy", _chk_half_isotropy, TIER1,
          _ledger("half_isotropic")),
    Check("isotropy", _chk_isotropy, TIER1, _ledger("isotropic")),
    Check("chain", _chk_chain, TIER1, _pass_if("isotropic")),
    Check("sphere-reduction", _chk_sphere_reduction, TIER1,
          _ledger("spherical")),
    Check("section", _chk_section, TIER1, _always,
          (_admitted, _spherical)),
    Check("psi", _chk_psi, TIER1, _always, (_admitted, _isotropy_split)),
    Check("closedness", _chk_closedness, TIER1, _ledger("pluriminimal")),
)

# name -> body; the runner calls each body through this dict
CHECKS = {c.name: c.body for c in TABLE}


def _evaluate(row: Check, ctx: FixtureContext) -> CheckResult:
    """The row's result on ctx's fixture, SKIPPED with the note of its
    first shut gate.  The expected status is read before a gate or the
    body runs, so a check that raises still counts against it."""
    t0 = time.perf_counter()
    expected = row.expect(ctx.rec.flags)
    res, extras, tol = None, {}, None
    try:
        note = next(filter(None, (gate(ctx) for gate in row.gates)), "")
        if note:
            status, expected = SKIPPED, None
        else:
            (res, extras), tol = CHECKS[row.name](ctx), row.threshold
            # a NaN compares false with every threshold
            nan = [k for k, v in [("residual", res), *extras.items()]
                   if np.isnan(v)]
            status = ERROR if nan else classify(res, tol)
            note = f"NaN in {', '.join(nan)}" if nan else ""
    except Exception as e:  # honest error reporting
        res, extras, tol, status = None, {}, None, ERROR
        note = f"{type(e).__name__}: {e}"
    return CheckResult(ctx.rec.name, row.name, status, res, tol, expected,
                       extras, time.perf_counter() - t0, note)


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
    the named registry fixtures, each under a name no other has; a run of
    no check, no fixture or one fixture twice is a ValueError."""
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
    if not selected or not names:
        raise ValueError("no check selected" if not selected
                         else "no fixture selected")
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"fixture {name!r} is selected twice")
    ctxs = (FixtureContext(loaded.get(name) or get_fixture(name), config)
            for name in names)  # one at a time; get_fixture raises on unknown
    results = [ctx.result(row) for ctx in ctxs for row in selected]
    return Report(config=config, results=results, version=__version__)
