"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every expected value is either derived by an independent construction
inside the test or is a structural constant of the fixture catalog.
"""

import numpy as np
import pytest

from plurimean import family, flags, forms, gaussmaps, kaehler
from plurimean.chartcalc import convergence_order, eval_jet, standard_J
from plurimean.fixtures import get_immersion, registry

ADMITTED = [r.name for r in registry(include_controls=False)]
PPMC = [r.name for r in registry() if r.flags["ppmc"]]
PASS_SET = ["plane", "sphere", "cylinder", "catenoid",
            "holomorphic-curve", "veronese", "standard-embedding"]

_geom_cache = {}


def _geom(name, per_axis=5):
    key = (name, per_axis)
    if key not in _geom_cache:
        imm = get_immersion(name)
        _geom_cache[key] = forms.compute_geometry(
            imm, imm.grid(per_axis, margin=0.05))
    return _geom_cache[key]


def _bundles(name):
    key = ("bun", name)
    if key not in _geom_cache:
        _geom_cache[key] = gaussmaps.projector_derivatives(_geom(name))
    return _geom_cache[key]


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_acceptance_01_conjugate_family():
    cat = get_immersion("catenoid")
    geom = _geom("catenoid")
    closed = family.closedness_residual(geom, np.pi / 2)
    member = family.integrate_family(cat, np.pi / 2, per_axis=41)
    target = get_immersion("helicoid").evaluate(member.pts)
    _, _, rms = family.rigid_match(member.values, target)
    worst_dev = max(
        family.integrate_family(cat, th, per_axis=41).metric_deviation
        for th in family.THETA_SWEEP[1:])
    ok = closed < 1e-6 and rms < 1e-5 and worst_dev < 1e-5
    _verdict(1, ok, f"catenoid->helicoid: closedness {closed:.2e}, "
                    f"Procrustes rms {rms:.2e}, metric dev {worst_dev:.2e}")


def test_acceptance_02_ppmc_vs_levi_equivalence():
    agree = True
    details = []
    for name in ADMITTED:
        geom = _geom(name)
        r1 = forms.ppmc_residual(geom)
        r2 = gaussmaps.gauss_levi_residual(geom)
        agree &= (r1 < 1e-6) == (r2 < 1e-6)
        if name in PASS_SET:
            agree &= r1 < 1e-6 and r2 < 1e-6
        details.append(f"{name} ({r1:.1e}/{r2:.1e})")
    ge = _geom("ellipsoid")
    e1, e2 = forms.ppmc_residual(ge), gaussmaps.gauss_levi_residual(ge)
    agree &= e1 > 1e-2 and e2 > 1e-2
    _verdict(2, agree, "ppmc/Levi statuses agree on all fixtures; "
                       f"ellipsoid control {e1:.1e}/{e2:.1e}")


def test_acceptance_03_structure_equations():
    worst = 0.0
    for name in PPMC:
        geom = _geom(name)
        worst = max(worst, float(np.max(
            family.structure_equation_residuals(geom, family.THETA_SWEEP))))
    _, c_ell, _ = family.structure_equation_residuals(_geom("ellipsoid"),
                                                      [np.pi / 4])[0]
    ok = worst < 1e-6 and c_ell > 1e-2
    _verdict(3, ok, f"(G,C,R) residuals on ppmc fixtures max {worst:.2e}; "
                    f"ellipsoid Codazzi(pi/4) {c_ell:.2e}")


def test_acceptance_04_normal_curvature_flatness():
    worst = max(kaehler.rn_tprime_residual(
        _geom(n).RN, get_immersion(n).complex_dim) for n in PPMC)
    sub = kaehler.sublemma_residual(_geom("veronese"))
    ok = worst < 1e-6 and sub < 1e-5
    _verdict(4, ok, f"RN(T',T') max {worst:.2e} on ppmc fixtures; "
                    f"Veronese intertwining {sub:.2e}")


def test_acceptance_05_superhorizontality_universal():
    worst, where = 0.0, ""
    for name in ADMITTED:
        bun, dP = _bundles(name)
        r = gaussmaps.superhorizontality_residual(bun, dP)
        if r > worst:
            worst, where = r, name
    _verdict(5, worst < 1e-8,
             f"superhorizontality max {worst:.2e} (at {where}) over all "
             f"admitted fixtures including the ellipsoid")


def test_acceptance_06_isotropy_flags():
    ok = True
    # holomorphic curve: pluriminimal via both routes
    bun, dP = _bundles("holomorphic-curve")
    h1, h2 = gaussmaps.holomorphicity_residuals(_geom("holomorphic-curve"),
                                                bun, dP)
    ok &= h1 < 1e-6 and h2 < 1e-6
    # Veronese: half-isotropic and isotropic but not holomorphic
    geom = _geom("veronese")
    bun, dP = _bundles("veronese")
    t1, t2 = gaussmaps.half_isotropy_residual(geom, bun)
    rep = gaussmaps.isotropy_decomposition(geom, bun, dP)
    chain = gaussmaps.differential_chain_residuals(geom, bun, dP)
    v1, v2 = gaussmaps.holomorphicity_residuals(geom, bun, dP)
    ok &= max(t1, t2) < 1e-6
    ok &= rep.orthogonality < 1e-8 and rep.parallelity < 1e-8
    ok &= max(chain.values()) < 1e-8
    ok &= v1 > 1e-1 and v2 > 1e-1
    # standard embedding: no (2,0)-part, trivial half-turn automorphism
    gse = _geom("standard-embedding")
    a20 = float(np.max(np.abs(gse.alpha20)))
    bun_se, _ = _bundles("standard-embedding")
    se_half = family.build_psi(gse, bun_se, [np.pi / 2])[0][0, 2]
    ok &= a20 < 1e-8 and se_half < 1e-8
    # Veronese normal-bundle automorphism psi_theta over the sweep and
    # the full turn
    res, minus_dim = family.build_psi(geom, bun,
                                      [*family.THETA_SWEEP, np.pi])
    eq8, full = res[:-1, 0].max(), res[-1, 2]
    ok &= minus_dim == 2 and full < 1e-12 and eq8 < 1e-6
    _verdict(6, ok,
             f"holo-curve routes {h1:.1e}/{h2:.1e}; Veronese half-iso "
             f"{max(t1, t2):.1e}, orth {rep.orthogonality:.1e}, par "
             f"{rep.parallelity:.1e}, chain {max(chain.values()):.1e}, "
             f"holo {min(v1, v2):.1e}; std-emb a20 {a20:.1e}, "
             f"psi half-turn {se_half:.1e}; Veronese psi "
             f"(-1)-dim {minus_dim}, psi_pi-I "
             f"{full:.1e}, eq8 max {eq8:.2e}")


def test_acceptance_07_remark2_sphere_reduction():
    mc = forms.mean_curvature_and_sphere_reduction(_geom("veronese"))
    target = np.array([1 / 3, 1 / 3, 1 / 3, 0, 0, 0])
    center_err = float(np.max(np.abs(mc.center - target)))
    ok = (mc.off_identity < 1e-6 and mc.center_spread < 1e-8
          and center_err < 1e-6 and mc.radius_spread < 1e-8)
    _verdict(7, ok, f"Remark-2 reduction: A_eta off-identity "
                    f"{mc.off_identity:.1e}, center spread "
                    f"{mc.center_spread:.1e}, |center - (1/3)Id| "
                    f"{center_err:.1e}, radius spread "
                    f"{mc.radius_spread:.1e}")


def test_acceptance_08_product_cross_terms():
    geom = _geom("product-spheres")
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        x1 = np.concatenate([rng.standard_normal(2), np.zeros(2)])
        x2 = np.concatenate([np.zeros(2), rng.standard_normal(2)])
        worst = max(worst,
                    forms.cross_term_identity_residual(geom, x1, x2))
    _verdict(8, worst < 1e-9,
             f"cross-factor |a11| = |a20| within {worst:.2e} on 50 "
             f"random pairs")


def _all_unitary_profiles(n):
    import itertools
    out = []
    for cuts in range(1, n):
        for pattern in itertools.combinations(range(1, n), cuts):
            bounds = (0,) + pattern + (n,)
            out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def test_acceptance_09_canonical_flag_elements():
    ok = True
    worst_a3 = worst_br = 0.0
    count = 0
    elems = []
    for n in (2, 3, 4):
        for dims in _all_unitary_profiles(n):
            elems.append(flags.canonical_unitary(dims))
    for n, r in ((4, 1), (5, 1), (6, 1), (5, 2), (6, 2)):
        fr = flags.standard_isotropic_frame(n, range(r))
        pos = {float(j): fr[j - 1:j] for j in range(1, r + 1)}
        rest = np.eye(n)[2 * r:]
        elems.append(flags.canonical_orthogonal(
            pos, n, real_frame=rest if rest.size else None))
    for elem in elems:
        grading = flags.grade(elem)
        ok &= grading.c1_pass and grading.c1_deviation <= 1e-9
        worst_a3 = max(worst_a3, grading.a3_residual)
        worst_br = max(worst_br,
                       flags.bracket_grading_residual(grading))
        ok &= flags.generation_check(grading).passed
        count += 1
    ok &= worst_a3 <= 1e-12 and worst_br <= 1e-9
    # gap-2 counterexample: spectrum (0,0,2,2) passes C1 but fails C2
    eye = np.eye(4, dtype=complex)
    bad = flags.CanonicalElement(
        tag=flags.UNITARY, n=4,
        xi=1j * np.diag([0.0, 0.0, 2.0, 2.0]).astype(complex),
        levels=(0.0, 2.0), frames=(eye[:2], eye[2:]))
    bad_rep = flags.generation_check(flags.grade(bad))
    ok &= flags.grade(bad).c1_pass and not bad_rep.passed
    # corollary cases (a) integer and (b) half-integer spectra
    int_elem = elems[-2]  # so(5), r = 2: integer levels with E_0
    out_a = flags.corollary_even_space(int_elem)
    ok &= out_a["case"] == "a" and out_a["conjugation_residual"] < 1e-9
    fr = flags.standard_isotropic_frame(4, range(2))
    half_elem = flags.canonical_orthogonal(
        {0.5: fr[:1], 1.5: fr[1:]}, 4)
    out_b = flags.corollary_even_space(half_elem)
    ok &= (out_b["case"] == "b" and out_b["isotropy_residual"] < 1e-9
           and out_b["maximal"])
    _verdict(9, ok, f"{count} canonical elements pass C1+C2 (A3 max "
                    f"{worst_a3:.1e}, bracket max {worst_br:.1e}); "
                    f"gap-2 counterexample fails C2 (closure "
                    f"{bad_rep.closure_dim}); corollary cases a/b hold")


def test_acceptance_10_two_structure_splitting():
    rng = np.random.default_rng(2024)
    worst_recon = worst_quat = 0.0
    total = 0
    for d in (2, 4, 6):
        for _ in range(34 if d == 2 else 33):
            Q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
            Q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
            J = Q1 @ standard_J(d // 2) @ Q1.T
            Jt = Q2 @ standard_J(d // 2) @ Q2.T
            res = flags.split_two_complex_structures(J, Jt)
            worst_recon = max(worst_recon, res.reconstruction_error)
            for b in res.blocks:
                if b.kind == "quaternionic":
                    k = b.basis.shape[0]
                    worst_quat = max(
                        worst_quat,
                        float(np.max(np.abs(b.J1 @ b.J1 + np.eye(k)))),
                        float(np.max(np.abs(b.J2 @ b.J2 + np.eye(k)))),
                        float(np.max(np.abs(b.J3 @ b.J3 + np.eye(k)))),
                        float(np.max(np.abs(b.J1 @ b.J2 - b.J3))),
                        float(np.max(np.abs(b.J1 @ b.J2
                                            + b.J2 @ b.J1))))
            total += 1
    degenerate_ok = True
    J = standard_J(3)
    for sign, kind in ((1.0, "+J"), (-1.0, "-J")):
        res = flags.split_two_complex_structures(J, sign * J)
        degenerate_ok &= [b.kind for b in res.blocks] == [kind]
        degenerate_ok &= res.reconstruction_error < 1e-12
    ok = worst_recon < 1e-9 and worst_quat < 1e-9 and degenerate_ok
    _verdict(10, ok, f"{total} random (J,Jt) pairs: reconstruction max "
                     f"{worst_recon:.1e}, quaternionic identities max "
                     f"{worst_quat:.1e}; Jt = +-J classified exactly")


def test_acceptance_11_oracle_agreement():
    worst_order = 2.0
    worst_eq4 = 0.0
    for name in ADMITTED:
        imm = get_immersion(name)
        pts = imm.grid(5, margin=0.05)
        worst_order = min(worst_order, convergence_order(
            imm, pts, eval_jet(imm, pts).d1))
        dP_T = gaussmaps.fd_tangent_projector_derivatives(_geom(name),
                                                          1e-4)
        worst_eq4 = max(worst_eq4, gaussmaps.dgauss_check(_geom(name),
                                                          dP_T))
    ok = worst_order >= 1.9 and worst_eq4 < 1e-5
    _verdict(11, ok, f"FD convergence order min {worst_order:.3f}; "
                     f"Gauss-differential two-route max {worst_eq4:.2e}")
