"""Fixture zoo: explicit charted immersions with known verification flags.

Each fixture is one catalog row: a chart formula, its default box, its
ledger of expected classification flags, notes and, if it has one, its
own grid.  The formula is a Python function of the chart coordinates:
on float arrays it gives the immersion's values, on Taylor-mode jets
(jets.py) its closed-form jets to order 1, 2 or 3.  `immersion` turns
any chart formula on a box into a ChartedImmersion.  Reproducing the
ledger is the master regression property of the whole toolkit.
"""

import functools
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import jets
from .chartcalc import ChartedImmersion

FLAG_NAMES = ("kaehler", "ppmc", "pluriminimal", "half_isotropic",
              "isotropic", "spherical")

# Taylor coefficients (index = power of u) of the conformal latitude t(u)
# of the spheroid with semi-axes (1, 1, 1.45): the solution of
# t'(u) = sin t / sqrt(1 + (1.45^2 - 1) sin^2 t), t(0) = pi/2.  With this
# reparametrization the chart (u, v) -> (sin t cos v, sin t sin v,
# 1.45 cos t) is conformal (max |E - G| = 5.6e-16 on |u| <= 0.42).
_SPHEROID_T_COEFFS = (
    1.5707963267948966, 0.6896551724137931, 0.0, -2.60021188e-02,
    0.0, -1.12349229e-03, 0.0, 1.58460381e-04,
    0.0, 1.85044564e-05, 0.0, -2.24805921e-06,
    0.0, -4.09152716e-07, 0.0, 4.08678650e-08,
    0.0, 1.03760495e-08, 0.0, -8.18986367e-10,
    0.0, -2.84153674e-10, 0.0, 1.67649975e-11,
    0.0, 8.16119255e-12, 0.0, -3.26054565e-13,
    0.0, -2.41838947e-13, 0.0, 5.20485433e-15,
    0.0, 7.31935359e-15, 0.0, -2.50196980e-17,
    0.0, -2.24723598e-16, 0.0, -3.29431267e-18, 0.0,
)

_SPHEROID_C = 1.45


@dataclass(frozen=True)
class FixtureRecord:
    """A charted immersion plus its expected classification flags."""

    name: str
    immersion: ChartedImmersion
    flags: dict
    grid_per_axis: Optional[int] = None   # None: the run's --grid
    notes: str = ""


def _stereo_sphere(u, v):
    """Stereographic chart of the unit sphere (south pole at the origin)."""
    r2 = u**2 + v**2
    iw = 1 / (1 + r2)
    return [2 * u * iw, 2 * v * iw, (r2 - 1) * iw]


def _spheroid(u, v):
    """Spheroid with semi-axes (1, 1, 1.45) in a conformal chart."""
    t = jets.polyval(u, _SPHEROID_T_COEFFS)
    s = np.sin(t)
    return [s * np.cos(v), s * np.sin(v), _SPHEROID_C * np.cos(t)]


def _veronese(u, v):
    """Unit-sphere point S maps to the rank-one projector S S^T, written
    in coordinates making the Frobenius metric Euclidean."""
    x, y, z = _stereo_sphere(u, v)
    r2 = np.sqrt(2.0)
    return [x**2, y**2, z**2, r2 * x * y, r2 * x * z, r2 * y * z]


class _Row(NamedTuple):
    formula: Callable
    box: tuple                   # default box: 2m (lo, hi) pairs
    flags: dict                  # the ledger, in FLAG_NAMES order
    notes: str
    grid: Optional[int] = None   # None: the run's --grid


# in registry order, which is also the report's order
_CATALOG = {
    "plane": _Row(
        lambda u, v: [u, v, 0.0], ((-1, 1), (-1, 1)),
        dict(kaehler=True, ppmc=True, pluriminimal=True,
             half_isotropic=True, isotropic=True, spherical=False),
        "totally geodesic; every flag trivially passes"),
    "skewed-plane": _Row(
        lambda u, v: [u + v / 2, v, 0.0], ((-1, 1), (-1, 1)),
        dict(kaehler=False, ppmc=None, pluriminimal=None,
             half_isotropic=None, isotropic=None, spherical=None),
        "non-conformal chart of the plane; fails the Kaehler "
        "orthogonality residual (negative control)"),
    "sphere": _Row(
        _stereo_sphere, ((-0.8, 0.8), (-0.8, 0.8)),
        dict(kaehler=True, ppmc=True, pluriminimal=False,
             half_isotropic=True, isotropic=True, spherical=True),
        "alpha = -<.,.> f; J-invariant second fundamental form"),
    "ellipsoid": _Row(
        _spheroid, ((-0.35, 0.35), (-0.7, 0.7)),
        dict(kaehler=True, ppmc=False, pluriminimal=False,
             half_isotropic=False, isotropic=False, spherical=False),
        "spheroid (1,1,1.45) in a conformal chart; generic "
        "non-parallel surface (negative control)"),
    "cylinder": _Row(
        lambda u, v: [np.cos(v), np.sin(v), u], ((-1, 1), (-1, 1)),
        dict(kaehler=True, ppmc=True, pluriminimal=False,
             half_isotropic=False, isotropic=False, spherical=False),
        "parallel mean curvature but alpha(T',T') lands in the "
        "span of the pluri-mean values"),
    "catenoid": _Row(
        lambda u, v: [np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), u],
        ((-0.8, 0.8), (-0.8, 0.8)),
        dict(kaehler=True, ppmc=True, pluriminimal=True,
             half_isotropic=True, isotropic=False, spherical=False),
        "minimal; conjugate partner of the helicoid at theta=pi/2"),
    "helicoid": _Row(
        lambda u, v: [np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), v],
        ((-0.8, 0.8), (-0.8, 0.8)),
        dict(kaehler=True, ppmc=True, pluriminimal=True,
             half_isotropic=True, isotropic=False, spherical=False),
        "minimal; conjugate partner of the catenoid"),
    "holomorphic-curve": _Row(
        lambda u, v: [u, v, u**2 - v**2, 2 * u * v],
        ((-0.7, 0.7), (-0.7, 0.7)),
        dict(kaehler=True, ppmc=True, pluriminimal=True,
             half_isotropic=True, isotropic=True, spherical=False),
        "z -> (z, z^2) in C^2 = R^4; pluriminimal"),
    "product-spheres": _Row(
        lambda u1, v1, u2, v2: (_stereo_sphere(u1, v1)
                                + _stereo_sphere(u2, v2)),
        ((-0.6, 0.6),) * 4,
        dict(kaehler=True, ppmc=True, pluriminimal=False,
             half_isotropic=True, isotropic=True, spherical=True),
        "product of round spheres in R^6; m = 2", grid=5),
    "veronese": _Row(
        _veronese, ((-0.7, 0.7), (-0.7, 0.7)),
        dict(kaehler=True, ppmc=True, pluriminimal=False,
             half_isotropic=True, isotropic=True, spherical=True),
        "S S^T in the affine space {trace = 1} of symmetric "
        "3x3 matrices; extrinsic symmetric"),
    # standard embedding p -> J_p of the sphere into the rotation algebra
    # (Frobenius norm sqrt(2) per unit vector)
    "standard-embedding": _Row(
        lambda u, v: [np.sqrt(2.0) * e for e in _stereo_sphere(u, v)],
        ((-0.7, 0.7), (-0.7, 0.7)),
        dict(kaehler=True, ppmc=True, pluriminimal=False,
             half_isotropic=True, isotropic=True, spherical=True),
        "sqrt(2) times the unit sphere: the rotation "
        "algebra picture of p -> J_p"),
}


def immersion(name: str, formula, box) -> ChartedImmersion:
    """The chart formula on box, 2m (lo, hi) pairs, as a ChartedImmersion:
    values and jets through jets.py, n from the value at the box centre."""
    box = np.asarray(box, dtype=float)
    return ChartedImmersion(
        name=name, ambient_dim=len(formula(*box.mean(axis=1))),
        complex_dim=len(box) // 2, domain=box,
        eval_fn=functools.partial(jets.values, formula),
        jet_fn=functools.partial(jets.jet, formula))


_cached_immersion = functools.lru_cache(maxsize=None)(immersion)


def get_immersion(name: str, domain=None) -> ChartedImmersion:
    """The catalog chart `name`, on its default box or on domain: 2m
    finite (lo, hi) pairs with lo < hi."""
    if name not in _CATALOG:
        raise KeyError(f"unknown chart formula {name!r}")
    box = _CATALOG[name].box
    if domain is not None:
        d = len(box)
        box = tuple(tuple(float(x) for x in row) for row in domain)
        if (len(box) != d or any(len(row) != 2 for row in box)
                or not np.all(np.isfinite(box))
                or any(lo >= hi for lo, hi in box)):
            raise ValueError(f"{name}: the domain must be {d} finite "
                             f"(lo, hi) pairs with lo < hi, got {box}")
    return _cached_immersion(name, _CATALOG[name].formula, box)


def get_fixture(name: str) -> FixtureRecord:
    if name not in _CATALOG:
        raise KeyError(f"unknown fixture {name!r}")
    row = _CATALOG[name]
    return FixtureRecord(name=name, immersion=get_immersion(name),
                         flags=dict(row.flags), grid_per_axis=row.grid,
                         notes=row.notes)


def registry():
    """All fixtures in registry order."""
    return [get_fixture(n) for n in _CATALOG]


def fixture_names():
    return list(_CATALOG)


def load_fixture_file(path) -> FixtureRecord:
    """Parse a structured-text fixture definition.

    Recognized keys (one `key: value` pair per line, '#' comments):
    name, formula, n, m, domain (2m pairs of floats), grid (points per
    chart axis, at least 5); any other key, or a key given twice, is a
    ValueError.  name and formula are required; the formula's registry
    fixture gives the flags, the default grid and the dims that n and m,
    if given, must match; domain overrides the box.
    """
    kv = {}
    with open(path) as fh:
        for raw in fh.read().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ValueError(f"malformed fixture line: {raw!r}")
            k, val = line.split(":", 1)
            k = k.strip().lower()
            if k not in ("name", "formula", "n", "m", "domain", "grid"):
                raise ValueError(f"unknown fixture key {k!r} in {raw!r}")
            if k in kv:
                raise ValueError(f"fixture key {k!r} given twice: {raw!r}")
            kv[k] = val.strip()

    needs = "a fixture file needs both a 'name' and a 'formula' key"
    formula = kv.get("formula")
    if formula is None:
        raise ValueError(needs)
    domain = None
    if "domain" in kv:
        vals = [float(x) for x in kv["domain"].replace(",", " ").split()]
        if len(vals) % 2:
            raise ValueError("domain needs an even number of floats")
        domain = [vals[i:i + 2] for i in range(0, len(vals), 2)]
    imm = get_immersion(formula, domain)
    if "n" in kv and int(kv["n"]) != imm.ambient_dim:
        raise ValueError(f"ambient dim mismatch: file says {kv['n']}, "
                         f"formula has {imm.ambient_dim}")
    if "m" in kv and int(kv["m"]) != imm.complex_dim:
        raise ValueError(f"complex dim mismatch: file says {kv['m']}, "
                         f"formula has {imm.complex_dim}")
    row = _CATALOG[formula]
    grid = int(kv["grid"]) if "grid" in kv else row.grid
    if grid is not None and grid < 5:
        raise ValueError("grid must be at least 5 per axis")
    if "name" not in kv:
        raise ValueError(needs)
    # under the file's name, so that messages name the file's fixture
    return FixtureRecord(name=kv["name"],
                         immersion=replace(imm, name=kv["name"]),
                         flags=dict(row.flags), grid_per_axis=grid,
                         notes=f"loaded from {path}")
