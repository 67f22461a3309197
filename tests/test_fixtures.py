"""Fixture registry and the text fixture-definition loader."""

import numpy as np
import pytest

from plurimean.fixtures import (
    FLAG_NAMES, fixture_names, get_fixture, get_immersion,
    load_fixture_file, registry,
)


def test_registry_is_complete_and_ordered():
    recs = registry()
    # the registry order is the report's and the benchmark's
    assert [r.name for r in recs] == fixture_names() == [
        "plane", "skewed-plane", "sphere", "ellipsoid", "cylinder",
        "catenoid", "helicoid", "holomorphic-curve", "product-spheres",
        "veronese", "standard-embedding"]
    admitted = [r for r in recs if r.flags["kaehler"]]
    assert len(admitted) == len(recs) - 1  # one non-Kaehler control


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_record_shape(name):
    rec = get_fixture(name)
    assert set(rec.flags) == set(FLAG_NAMES)
    imm = rec.immersion
    assert imm.domain.shape == (imm.chart_dim, 2)
    assert np.all(imm.domain[:, 0] < imm.domain[:, 1])
    vals = imm.evaluate(imm.grid(3))
    assert vals.shape == (3 ** imm.chart_dim, imm.ambient_dim)
    assert np.all(np.isfinite(vals))


def test_flag_implications_in_ledger():
    # pluriminimal => ppmc => kaehler; isotropic => half_isotropic
    for rec in registry():
        fl = rec.flags
        if fl["pluriminimal"]:
            assert fl["ppmc"]
        if fl["ppmc"]:
            assert fl["kaehler"]
        if fl["isotropic"]:
            assert fl["half_isotropic"]


def test_unknown_fixture_raises():
    with pytest.raises(KeyError):
        get_fixture("moebius")
    with pytest.raises(KeyError):
        get_immersion("moebius")


def test_immersions_are_cached():
    assert get_immersion("catenoid") is get_immersion("catenoid")


def test_domain_override_changes_grid():
    imm = get_immersion("catenoid", domain=[[-0.3, 0.3], [-0.3, 0.3]])
    assert float(np.max(np.abs(imm.grid(5)))) == pytest.approx(0.3)


@pytest.mark.parametrize("domain", [
    [[-0.5, 0.5]],                                # one pair for m = 1
    [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]],      # three pairs
    [[-0.5, 0.5], [0.5, -0.5]],                   # reversed
    [[-0.5, 0.5], [0.2, 0.2]],                    # empty
    [[-0.5, np.inf], [-0.5, 0.5]],                # not finite
    [[-0.5, 0.5, 0.7], [-0.5, 0.5]],              # not a pair
])
def test_get_immersion_rejects_bad_domains(domain):
    with pytest.raises(ValueError, match="domain"):
        get_immersion("catenoid", domain)


def test_load_fixture_file_roundtrip(tmp_path):
    path = tmp_path / "cat.fixture"
    path.write_text(
        "# a custom catenoid window\n"
        "name: cat-narrow\n"
        "formula: catenoid\n"
        "n: 3\n"
        "m: 1\n"
        "domain: -0.5 0.5, -0.5 0.5\n"
        "grid: 7\n")
    rec = load_fixture_file(path)
    assert rec.name == "cat-narrow"
    assert rec.grid_per_axis == 7
    assert rec.flags["pluriminimal"] is True
    assert float(np.max(np.abs(rec.immersion.grid(5)))) == pytest.approx(0.5)
    assert rec.immersion.jet_fn is not None


@pytest.mark.parametrize("body,err", [
    ("n: 3\n", "formula"),
    ("formula: catenoid\nn: 5\n", "ambient"),
    ("formula: catenoid\nm: 2\n", "complex"),
    ("formula: catenoid\ndomain: 1 2 3\n", "even number"),
    ("formula: catenoid\ndomain: -0.5 0.5\n", "2 finite"),
    ("formula: catenoid\ndomain: -0.5 0.5, 0.5 -0.5\n", "lo < hi"),
    ("formula: catenoid\njets: symbolic\n", "jets"),
    ("formula: catenoid\njets: fd\n", "jets"),
    ("formula catenoid\n", "malformed"),
    ("formula: catenoid\ngrid: 3\n", "grid"),
    ("formula: catenoid\ngird: 7\n", "unknown fixture key 'gird'"),
    ("formula: catenoid\njets: analytic\n", "unknown fixture key 'jets'"),
    ("formula: catenoid\ngrid: 7\ngrid: 5\n", "key 'grid' given twice"),
    ("name: a\nformula: catenoid\nname: b\n", "key 'name' given twice"),
])
def test_load_fixture_file_rejects_bad_input(tmp_path, body, err):
    path = tmp_path / "bad.fixture"
    path.write_text(body)
    with pytest.raises(ValueError, match=err):
        load_fixture_file(path)


def test_fixture_file_without_grid_takes_the_catalog_grid(tmp_path):
    path = tmp_path / "f.fixture"
    path.write_text("name: f\nformula: product-spheres\n")
    assert load_fixture_file(path).grid_per_axis == 5
    path.write_text("name: f\nformula: catenoid\n")
    assert load_fixture_file(path).grid_per_axis is None


@pytest.mark.parametrize("body", [
    "formula: catenoid\ndomain: -0.5 0.5, -0.5 0.5\n",
    "name: catenoid\n",
])
def test_fixture_file_must_name_itself_and_its_formula(tmp_path, body):
    """Every formula is a registry fixture, so a file that took its name
    from its formula, or its formula from its name, could never run."""
    path = tmp_path / "f.fixture"
    path.write_text(body)
    with pytest.raises(ValueError,
                       match="needs both a 'name' and a 'formula' key"):
        load_fixture_file(path)
