"""Report rendering: a structured key-value tree with stable key
ordering, CSV export of theta-sweep residuals, and triangle-mesh export
of integrated family members.
"""

import csv
import io
from typing import List

import numpy as np

from .family import FamilyMember
from .pipeline import Report


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not np.isfinite(v):
            return str(float(v))    # "nan", "inf" or "-inf"
        if v == 0.0:
            return "0"
        if v == int(v) and abs(v) < 1e6:
            return str(int(v))
        return f"{v:.6e}"
    return str(v)


def render_tree(tree: dict, indent: int = 0) -> str:
    """Key-value tree as indented text; insertion order is preserved so
    callers control the (stable) ordering."""
    out = []
    pad = "  " * indent
    for key, val in tree.items():
        if isinstance(val, dict):
            out.append(f"{pad}{key}:")
            out.append(render_tree(val, indent + 1))
        else:
            out.append(f"{pad}{key}: {_fmt(val)}")
    return "\n".join(out)


def report_tree(report: Report) -> dict:
    """Stable-ordered tree: run metadata, then fixtures in run order,
    then checks in pipeline order, then a summary block."""
    cfg = report.config
    tree: dict = {
        "run": {
            "version": report.version,
            # the fixtures that ran, in run order, a fixture file's too
            "fixtures": ", ".join(dict.fromkeys(
                r.fixture for r in report.results)),
            "grid": cfg.grid,
            "h": cfg.h,
        }
    }
    fixtures: dict = {}
    for r in report.results:
        node = fixtures.setdefault(r.fixture, {})
        entry = {"status": r.status}
        if r.residual is not None:
            entry["residual"] = r.residual
            entry["threshold"] = r.threshold
        if r.expected is not None:
            entry["expected"] = r.expected
            entry["matches_expectation"] = not r.mismatch
        for k in sorted(r.extras):
            entry[k] = r.extras[k]
        if r.message:
            entry["note"] = r.message
        node[r.check] = entry
    tree["fixtures"] = fixtures

    counts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0,
              "SKIPPED": 0, "ERROR": 0}
    for r in report.results:
        counts[r.status] = counts.get(r.status, 0) + 1
    tree["summary"] = {
        "checks_run": len(report.results),
        **{k.lower(): v for k, v in counts.items()},
        "expectation_mismatches": len(report.mismatches),
    }
    return tree


def render_report(report: Report) -> str:
    return render_tree(report_tree(report)) + "\n"


def write_sweep_csv(path, rows: List[dict]) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt(v) if isinstance(v, float) else v
                        for k, v in row.items()})


# rows formatted per %-operation: one operation for the whole mesh
# would hold a tuple of every number at once and raise the peak memory
_MESH_CHUNK = 4096


def _write_rows(buf, line: str, rows: np.ndarray) -> None:
    """One %-formatted `line` per row of the 2-d array rows."""
    for s in range(0, len(rows), _MESH_CHUNK):
        block = rows[s:s + _MESH_CHUNK]
        buf.write((line * len(block)) % tuple(block.ravel().tolist()))


def mesh_text(member: FamilyMember) -> str:
    """Triangle mesh of an integrated family member.

    Vertices as `v x y z` (first three coordinates); when the ambient
    dimension exceeds 3 every full coordinate vector is emitted first as
    a `# coords ...` comment line.  Faces as 1-based `f i j k`, two
    triangles per grid quad.
    """
    V = member.values
    n = V.shape[1]
    rows, cols = member.shape
    buf = io.StringIO()
    if n > 3:
        _write_rows(buf, "# coords " + " ".join(["%.12g"] * n) + "\n", V)
    xyz = V[:, :3] if n >= 3 else np.pad(V, ((0, 0), (0, 3 - n)))
    _write_rows(buf, "v %.12g %.12g %.12g\n", xyz)
    # quad (i, j) has corners a = i*cols + j + 1, b = a + 1, c = a + cols
    # and d = c + 1, and the triangles (a, b, d) and (a, d, c)
    a = np.arange(1, rows * cols + 1).reshape(rows, cols)[:-1, :-1].ravel()
    c = a + cols
    quads = np.stack([a, a + 1, c + 1, a, c + 1, c], axis=1)
    _write_rows(buf, "f %d %d %d\nf %d %d %d\n", quads)
    return buf.getvalue()


def write_mesh(path, member: FamilyMember) -> None:
    with open(path, "w") as fh:
        fh.write(mesh_text(member))
