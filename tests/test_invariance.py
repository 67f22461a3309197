"""The registry's 220 statuses do not depend on where the image sits or
on which holomorphic chart describes it: each fixture moved by a rigid
motion, in its conjugate chart and in a holomorphic change of chart
reads the statuses of the registry fixture.  A real shear of the chart,
which is not conformal, is the negative control: kaehler FAILs on every
fixture."""

import numpy as np
import pytest

from plurimean import pipeline
from plurimean.fixtures import _CATALOG, FixtureRecord, immersion

C = 0.15        # the holomorphic chart z -> z + C z^2
SHRINK = 0.8    # keeps that chart's image of the box inside the box
SHEAR = 0.3     # the real shear (u, v) -> (u + SHEAR v, v)


def _rigid(formula, box):
    """Q f + b, Q a seeded rotation of the ambient space and b a seeded
    translation of size about 1."""
    n = len(formula(*np.mean(box, axis=1)))
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal(n)

    def moved(*x):
        y = formula(*x)
        return [sum(float(Q[i, j]) * y[j] for j in range(n)) + float(b[i])
                for i in range(n)]
    return moved, box


def _conjugate(formula, box):
    """The chart v -> -v on every complex coordinate z = u + iv; the
    boxes are symmetric about 0, so the image is the same."""
    return (lambda *x: formula(*[-c if k % 2 else c
                                 for k, c in enumerate(x)])), box


def _holomorphic(formula, box):
    """z -> z + C z^2 (m = 1), or (w1 + C w2^2, w2 + C w1^2) (m = 2), on
    the box shrunk by SHRINK, whose image stays inside the box (the
    spheroid's chart is conformal on its box only)."""
    def square(u, v):   # Re and Im of (u + iv)^2
        return u * u - v * v, 2 * u * v

    def chart(*x):
        if len(x) == 2:
            re, im = square(*x)
            return formula(x[0] + C * re, x[1] + C * im)
        (re1, im1), (re2, im2) = square(*x[:2]), square(*x[2:])
        return formula(x[0] + C * re2, x[1] + C * im2,
                       x[2] + C * re1, x[3] + C * im1)
    return chart, SHRINK * np.asarray(box, dtype=float)


def _sheared(formula, box):
    """(u, v) -> (u + SHEAR v, v) on every complex coordinate."""
    return (lambda *x: formula(*[c + SHEAR * x[k + 1] if k % 2 == 0 else c
                                 for k, c in enumerate(x)])), box


def _records(transform, label):
    out = []
    for name, row in _CATALOG.items():
        formula, box = transform(row.formula, row.box)
        out.append(FixtureRecord(f"{name}-{label}",
                                 immersion(f"{name}-{label}", formula, box),
                                 dict(row.flags), row.grid))
    return out


def _statuses(report):
    """(registry fixture, check) -> status."""
    return {(r.fixture.rsplit("-", 1)[0] if r.fixture not in _CATALOG
             else r.fixture, r.check): r.status for r in report.results}


@pytest.fixture(scope="module")
def registry_statuses():
    return _statuses(pipeline.run(pipeline.RunConfig()))


@pytest.mark.parametrize("transform", [_rigid, _conjugate, _holomorphic],
                         ids=["rigid", "conjugate", "holomorphic"])
def test_statuses_are_invariant(registry_statuses, transform):
    rep = pipeline.run(pipeline.RunConfig(fixtures=[]),
                       extra_records=_records(transform, "moved"))
    assert len(registry_statuses) == 220
    assert _statuses(rep) == registry_statuses


def test_a_real_shear_fails_kaehler_on_every_fixture():
    rep = pipeline.run(pipeline.RunConfig(fixtures=[], checks=["kaehler"]),
                       extra_records=_records(_sheared, "sheared"))
    assert [r.status for r in rep.results] == [pipeline.FAIL] * len(_CATALOG)
