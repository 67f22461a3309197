import pytest

from plurimean import forms


@pytest.fixture
def geometry_calls(monkeypatch):
    """Every forms.compute_geometry call made during the test, as
    (immersion name, point count, point bytes)."""
    calls = []
    build = forms.compute_geometry

    def spy(imm, pts):
        calls.append((imm.name, len(pts), pts.tobytes()))
        return build(imm, pts)

    monkeypatch.setattr(forms, "compute_geometry", spy)
    return calls
