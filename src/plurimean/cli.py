"""Command line interface.

Verbs:
  verify         run the check suite against fixtures
  family         integrate an associated-family member, export mesh/CSV
  flag-demo      grade a canonical flag-manifold element and check it
  list-fixtures  show the fixture registry and expected outcomes

The `verify` exit code is the number of expectation mismatches (checks
whose PASS/FAIL status disagrees with the fixture ledger) plus the
number of checks that raised (ERROR), capped at 125 so that no count
wraps to 0.  It is not the raw number of failing residuals: negative
controls are supposed to fail.

`flag-demo` exits 1 when C1 or C2 fails, or when the A3, bracket or
Cartan-split residual exceeds the strict tier 1e-8: the graded C2
closure relies on those bracket relations.
"""

import argparse
import sys

import numpy as np

from . import __version__, family, fixtures, flags, pipeline, report


def _parse_theta(text: str) -> float:
    """Accept plain floats and simple pi expressions: 'pi', 'pi/2',
    '3pi/8', '0.25pi'.  The angle must be finite."""
    s = text.strip().lower().replace(" ", "")
    if "pi" not in s:
        value = float(s)
    else:
        left, _, right = s.partition("pi")
        num = float(left) if left not in ("", "+", "-") else \
            (-1.0 if left == "-" else 1.0)
        if right and not right.startswith("/"):
            raise ValueError(f"cannot parse angle {text!r}")
        den = float(right[1:]) if right else 1.0
        value = num * np.pi / den if den else np.inf
    if not np.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def _parse_list(text: str):
    return [t for t in (s.strip() for s in text.split(",")) if t]


# flag-demo's options of each algebra, with their defaults
_DEMO_DEFAULTS = {"unitary": {"dims": "1,2", "lambda0": 0.0, "seed": None},
                  "orthogonal": {"n": 4, "r": 1}}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plurimean",
        description="Numerical verification of parallel pluri-mean "
                    "curvature geometry on fixture immersions.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    pv = sub.add_parser("verify", help="run the check suite")
    pv.add_argument("--fixtures", default="all",
                    help="comma-separated fixture names or 'all'")
    pv.add_argument("--fixture-file", metavar="PATH", default=None,
                    help="also verify a fixture defined in a text file")
    pv.add_argument("--checks", default="all",
                    help=f"comma-separated subset of: "
                         f"{', '.join(pipeline.CHECKS)}; a gated row "
                         f"reads SKIPPED where a row it needs does not "
                         f"PASS, ERROR where that row reads ERROR, "
                         f"selected or not")
    pv.add_argument("--theta", default=None,
                    help="comma-separated rotation angles for the sweep "
                         "(default: k*pi/8 for k = 0..8); accepts 'pi/4'")
    pv.add_argument("--grid", type=int, default=9,
                    help="grid points per chart axis (default 9) for "
                         "fixtures without a grid of their own "
                         "(product-spheres: 5; a fixture file's grid:)")
    pv.add_argument("--h", type=float, default=1e-4,
                    help="finite-difference step of eq4's second route "
                         "(default 1e-4)")
    pv.add_argument("--report", metavar="PATH", default=None,
                    help="write the key-value report to PATH instead of "
                         "stdout")

    pf = sub.add_parser("family",
                        help="integrate an associated-family member")
    pf.add_argument("--fixture", default="catenoid",
                    help="surface fixture to integrate (default catenoid)")
    pf.add_argument("--theta", default="pi/2",
                    help="rotation angle (default pi/2); accepts 'pi/4'")
    pf.add_argument("--grid", type=int, default=41,
                    help="grid points per axis (default 41)")
    pf.add_argument("--mesh", metavar="PATH", default=None,
                    help="write the integrated surface as a triangle mesh")
    pf.add_argument("--sweep-csv", metavar="PATH", default=None,
                    help="write per-theta structure-equation residuals "
                         "as CSV")
    pf.add_argument("--match", metavar="FIXTURE", default=None,
                    help="rigidly match the integrated surface against "
                         "another fixture evaluated on the same chart")
    pf.add_argument("--report", metavar="PATH", default=None)

    pd = sub.add_parser("flag-demo", argument_default=argparse.SUPPRESS,
                        help="grade a canonical flag-manifold element")
    pd.add_argument("--algebra", default="unitary", choices=_DEMO_DEFAULTS,
                    help="default unitary; options of the other are errors")
    pd.add_argument("--dims",
                    help="unitary eigenspace dimensions (default '1,2')")
    pd.add_argument("--lambda0", type=float,
                    help="lowest unitary eigenvalue (default 0)")
    pd.add_argument("--n", type=int,
                    help="orthogonal matrix size (default 4)")
    pd.add_argument("--r", type=int,
                    help="orthogonal isotropic rank (default 1)")
    pd.add_argument("--seed", type=int,
                    help="randomize the unitary frames with this seed")
    pd.add_argument("--report", metavar="PATH", default=None)

    sub.add_parser("list-fixtures", help="show the fixture registry")
    return ap


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ verbs

def cmd_verify(args) -> int:
    names = fixtures.fixture_names() if args.fixtures == "all" \
        else _parse_list(args.fixtures)
    thetas = list(family.THETA_SWEEP) if args.theta is None else \
        [_parse_theta(t) for t in _parse_list(args.theta)]
    extra = []
    if args.fixture_file:
        extra.append(fixtures.load_fixture_file(args.fixture_file))
    cfg = pipeline.RunConfig(
        fixtures=names, checks=_parse_list(args.checks),
        grid=args.grid, h=args.h, thetas=thetas)
    rep = pipeline.run(cfg, extra_records=extra)
    _emit(report.render_report(rep), args.report)
    return min(125, sum(r.mismatch or r.status == pipeline.ERROR
                        for r in rep.results))


def cmd_family(args) -> int:
    theta = _parse_theta(args.theta)
    imm = fixtures.get_immersion(args.fixture)
    if args.match:
        target = fixtures.get_immersion(args.match)
        if target.chart_dim != imm.chart_dim:
            raise ValueError(
                f"cannot match {args.fixture} (chart dimension "
                f"{imm.chart_dim}) against {args.match} (chart dimension "
                f"{target.chart_dim})")
    member = family.integrate_family(imm, theta, per_axis=args.grid)
    geom = member.geom
    tree = {
        "fixture": args.fixture,
        "theta": theta,
        "grid": f"{member.shape[0]}x{member.shape[1]}",
        "metric_deviation": member.metric_deviation,
        "closedness_residual": member.closedness,
    }
    if args.match:
        B = target.evaluate(member.pts)
        _, _, rms = family.rigid_match(member.values, B)
        tree["match"] = {"fixture": args.match, "rms": rms}
    if args.mesh:
        report.write_mesh(args.mesh, member)
        tree["mesh"] = args.mesh
    if args.sweep_csv:
        res = family.structure_equation_residuals(geom, family.THETA_SWEEP)
        closed = family.closedness_residual(geom, family.THETA_SWEEP)
        rows = [{"fixture": args.fixture, "theta": th, "gauss": g,
                 "codazzi": c, "ricci": r, "closedness": cl}
                for th, (g, c, r), cl in zip(family.THETA_SWEEP,
                                             res.tolist(), closed.tolist())]
        report.write_sweep_csv(args.sweep_csv, rows)
        tree["sweep_csv"] = args.sweep_csv
    _emit(report.render_tree(tree) + "\n", args.report)
    return 0


def _demo_element(args):
    # an option left out is absent from args (argparse.SUPPRESS)
    other, = set(_DEMO_DEFAULTS) - {args.algebra}
    given = [key for key in _DEMO_DEFAULTS[other] if key in vars(args)]
    if given:
        raise ValueError(f"--{given[0]} applies to --algebra {other} only")
    args = argparse.Namespace(**_DEMO_DEFAULTS[args.algebra] | vars(args))
    if args.algebra == "unitary":
        dims = [int(d) for d in _parse_list(args.dims)]
        frames = None
        if args.seed is not None:
            rng = np.random.default_rng(args.seed)
            n = sum(dims)
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal(
                (n, n))
            Q, _ = np.linalg.qr(M)
            frames = np.split(Q.conj().T, np.cumsum(dims)[:-1])
        return flags.canonical_unitary(dims, lambda0=args.lambda0,
                                       frames=frames)
    if not 0 <= args.r <= args.n // 2:  # the frame below rejects n < 1
        raise ValueError(f"need 0 <= r <= n // 2, got n={args.n}, r={args.r}")
    fr = flags.standard_isotropic_frame(args.n, range(args.r))
    pos = {float(j): fr[j - 1:j] for j in range(1, args.r + 1)}
    rest = np.eye(args.n)[2 * args.r:]
    return flags.canonical_orthogonal(
        pos, args.n, real_frame=rest if rest.size else None)


def cmd_flag_demo(args) -> int:
    elem = _demo_element(args)
    grading = flags.grade(elem)
    c2 = flags.generation_check(grading)
    _, _, cartan = flags.cartan_split(grading)
    tree = {
        "algebra": args.algebra,
        "n": elem.n,
        "algebra_dim": elem.algebra_dim,
        "levels": ", ".join(f"{l:g}" for l in elem.levels),
        "grading_dims": ", ".join(
            f"g{k:+g}: {d}" for k, d in sorted(grading.dims().items())),
        "C1_integer_gaps": grading.c1_pass,
        "C1_deviation": grading.c1_deviation,
        "A3_residual": grading.a3_residual,
        "bracket_residual": flags.bracket_grading_residual(grading),
        "C2_generation": {
            "closure_dim": c2.closure_dim,
            "center_dim": c2.center_dim,
            "algebra_dim": c2.algebra_dim,
            "passed": c2.passed,
        },
        # np.max, not max(): a NaN must reach the exit code
        "cartan_split_residual": float(np.max(list(cartan.values()))),
    }
    _emit(report.render_tree(tree) + "\n", args.report)
    residuals_ok = all(tree[key] <= pipeline.TIER1 for key in (
        "A3_residual", "bracket_residual", "cartan_split_residual"))
    return 0 if (grading.c1_pass and c2.passed and residuals_ok) else 1


def cmd_list_fixtures(args) -> int:
    lines = []
    for rec in fixtures.registry():
        imm = rec.immersion
        fl = " ".join(
            f"{k}={'?' if v is None else ('y' if v else 'n')}"
            for k, v in rec.flags.items())
        lines.append(f"{rec.name:20s} m={imm.complex_dim} "
                     f"n={imm.ambient_dim}  {fl}")
        lines.append(f"{'':20s} {rec.notes}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "family": cmd_family,
               "flag-demo": cmd_flag_demo,
               "list-fixtures": cmd_list_fixtures}[args.verb]
    try:
        return handler(args)
    except (ValueError, KeyError, NotImplementedError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
