"""What the benchmark runs and reports: workloads, sizes and metric names.

BENCHMARK.json at the repository root lists the same workloads and
metrics; test_perfbench.py checks that the two agree.
"""

import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"   # reports, meshes, span files

FIXTURES = ("plane", "skewed-plane", "sphere", "ellipsoid", "cylinder",
            "catenoid", "helicoid", "holomorphic-curve", "product-spheres",
            "veronese", "standard-embedding")

CHECKS = ("kaehler", "jets", "grassmann", "eq4", "codazzi", "ppmc",
          "gauss-levi", "pluriminimal", "structure-equations", "rn-tprime",
          "sublemma", "superhorizontality", "lift-grading", "half-isotropy",
          "isotropy", "chain", "sphere-reduction", "section", "psi",
          "closedness")

WORKLOADS = ("verify-warm", "family-sweep", "flag-grading")

# A layer is a module of the package.
LAYERS = ("fixtures", "chartcalc", "forms", "kaehler", "kernels",
          "gaussmaps", "family", "flags", "pipeline", "report", "cli")

# Per size: the fixtures verify runs, the family grid and its Procrustes
# bound, how many flag elements and split pairs a pass takes (None: all),
# the fewest iterations a run makes whatever --seconds says, and the
# fewest and most fresh processes a run sets up to time set-up (it stops
# between the two once set-ups have taken SETUP_SECONDS).  "tiny" exists
# for the self-tests only.
SIZES = {
    "full": {"verify_fixtures": FIXTURES, "family_grid": 201,
             "family_rms_max": 1e-10, "flag_elements": None,
             "split_pairs": None, "min_iters": 3, "setups": (2, 9)},
    "tiny": {"verify_fixtures": ("plane", "catenoid"), "family_grid": 21,
             "family_rms_max": 1e-7, "flag_elements": 3,
             "split_pairs": 2, "min_iters": 1, "setups": (1, 1)},
}
SETUP_SECONDS = 3.0

# The reference loop that measures how fast a CPU runs right now:
# SPIN_LOOPS steps of pure Python, 0.96-1.0 ms on an unloaded CPU of the
# machine the figures in README.md come from.  wall_s and setup_s are
# stated at the speed where it takes REF_SPIN_S.
SPIN_LOOPS, REF_SPIN_S = 16000, 1.0e-3


def min_iters(size):
    return SIZES[size]["min_iters"]


def ops_per_iter(workload, size):
    """Latency samples one iteration yields."""
    cfg = SIZES[size]
    if workload.startswith("verify"):
        return len(cfg["verify_fixtures"])
    if workload == "family-sweep":
        return 1
    return len(flag_elements(size))


def tail_percentile(n_samples):
    """Highest whole percentile with at least 10 samples beyond it; 50
    (the median) when even that does not hold.  Fixed per workload from
    the fewest samples a run yields, so it does not drift with speed."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n_samples)))


# Flag elements in pass order: (label, algebra, shape, C1, C2).  shape is
# the unitary eigenspace dimensions, the orthogonal (n, r) of the
# flag-demo construction (levels +-1..+-r, zero level on the rest), or a
# control's levels and dimensions.  The two controls come first: integer
# gaps of 2 with an empty g_1 (C1 holds, C2 must fail) and a gap of 1.5
# (C1 must fail).  The verdicts are those of the commit that defined
# this benchmark.
FLAG_ELEMENTS = (
    ("gap-2 control", "control", ((0.0, 2.0), (2, 2)), True, False),
    ("half-gap control", "control", ((0.0, 1.5), (2, 1)), False, False),
) + tuple(
    (f"u{sum(d)}:" + ",".join(map(str, d)), "unitary", d, True, True)
    for d in ((1, 2), (1, 1, 1), (2, 2), (1, 3), (2, 3), (1, 1, 1, 1, 1),
              (3, 3), (1, 2, 2, 1), (3, 4), (2, 2, 2, 1), (2, 3, 3),
              (4, 5), (3, 3, 3))
) + tuple(
    (f"o{n}:r{r}", "orthogonal", (n, r), True, n % 2 == 1 or r < n // 2)
    for n in range(6, 11) for r in (1, n // 2)
)

# real dimensions of the seeded (J, Jt) pairs split in every flag pass
SPLIT_DIMS = (4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12)


def flag_elements(size):
    k = SIZES[size]["flag_elements"]
    return FLAG_ELEMENTS if k is None else FLAG_ELEMENTS[:k]


def split_dims(size):
    k = SIZES[size]["split_pairs"]
    return SPLIT_DIMS if k is None else SPLIT_DIMS[:k]


# End-to-end metrics with a bound in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Printed beside them but not bounded: the times as measured and the
# reference loop's time they are scaled by; op latencies are short calls whose time swings
# far more from run to run than an iteration's (see README.md); and
# failed_frac is 0 when all is well.
REPORTED = (
    ("wall_raw_s", "s"),
    ("setup_raw_s", "s"),
    ("spin_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


def _per_layer():
    m = [("import.busy_s", "s", "lower"), ("fixtures.build_s", "s", "lower")]
    m += [(f"fixtures.build.{f}_s", "s", "lower") for f in FIXTURES]
    m += [("chartcalc.eval_jet.busy_s", "s", "lower"),
          ("chartcalc.eval_jet.calls", "count", "lower"),
          ("chartcalc.eval_jet.points", "count", "lower"),
          ("chartcalc.fd_jet_oracle.busy_s", "s", "lower"),
          ("chartcalc.fd_jet_oracle.calls", "count", "lower"),
          ("forms.compute_geometry.busy_s", "s", "lower"),
          ("forms.compute_geometry.self_s", "s", "lower"),
          ("forms.compute_geometry.calls", "count", "lower"),
          ("forms.compute_geometry.points", "count", "lower"),
          ("forms.compute_geometry.distinct_ratio", "ratio", "higher")]
    m += [(f"kaehler.{f}.busy_s", "s", "lower")
          for f in ("metric_data", "normal_frame", "curvature_from_gauss")]
    for f in ("gauss_curvature", "christoffel", "gauss_residual"):
        m += [(f"kernels.{f}.busy_s", "s", "lower"),
              (f"kernels.{f}.calls", "count", "lower"),
              (f"kernels.{f}.flops", "flop", "lower"),
              (f"kernels.{f}.bytes", "B", "lower")]
    m += [("gaussmaps.bundle_projectors.busy_s", "s", "lower"),
          ("gaussmaps.bundle_projectors.calls", "count", "lower"),
          ("gaussmaps.projector_derivatives.busy_s", "s", "lower"),
          ("gaussmaps.projector_derivatives.self_s", "s", "lower"),
          ("gaussmaps.projector_derivatives.calls", "count", "lower"),
          ("gaussmaps.dgauss_check.busy_s", "s", "lower"),
          ("gaussmaps.dgauss_check.self_s", "s", "lower")]
    m += [(f"family.{f}.busy_s", "s", "lower")
          for f in ("integrate_family", "structure_equation_residuals",
                    "rigid_match", "build_psi", "closedness_residual")]
    m += [(f"flags.{f}.busy_s", "s", "lower")
          for f in ("grade", "generation_check", "cartan_split",
                    "bracket_grading_residual",
                    "split_two_complex_structures")]
    m += [("flags.elements", "count", "higher"),
          ("flags.algebra_dim_sum", "count", "higher")]
    m += [(f"pipeline.check.{c}.busy_s", "s", "lower") for c in CHECKS]
    m += [(f"pipeline.check.{c}.self_s", "s", "lower") for c in CHECKS]
    m += [(f"pipeline.{k}", "count", "lower")
          for k in ("errors", "mismatches", "skipped")]
    m += [(f"report.{f}.busy_s", "s", "lower")
          for f in ("render_report", "write_mesh", "write_sweep_csv")]
    m += [("report.write_mesh.bytes", "B", "lower"),
          ("cli.main.self_s", "s", "lower")]
    m += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    m += [("unattributed_s", "s", "lower"),
          ("trace.wall_s", "s", "lower"),
          ("trace.overhead_s", "s", "lower")]
    return tuple(m)


PER_LAYER = _per_layer()
