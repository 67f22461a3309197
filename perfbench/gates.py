"""Correctness gates: a run whose outputs are wrong counts as failed,
however fast it was.

Every gate returns a list of problem strings; an empty list passes.
"""

import json
from pathlib import Path

TABLE_PATH = Path(__file__).with_name("status_table.json")
ERROR = "ERROR"


def load_status_table():
    """(fixture -> check -> status) recorded from a full verify run at
    the commit that defined this benchmark: 220 results, 0 ledger
    mismatches, 0 ERROR, 29 SKIPPED."""
    return json.loads(TABLE_PATH.read_text())


def verify_problems(results, table, fixtures):
    """Gate verify results fixture by fixture.

    results: objects with fixture, check, status, message and mismatch
    attributes (pipeline.CheckResult).  ERROR is reported on its own
    because the runner gives ERRORs expected=None, so the program's own
    ledger never counts them as mismatches.  Returns
    {fixture: [problem, ...]} for the given fixtures.
    """
    problems = {f: [] for f in fixtures}
    seen = set()
    for r in results:
        seen.add((r.fixture, r.check))
        bucket = problems.setdefault(r.fixture, [])
        want = table.get(r.fixture, {}).get(r.check)
        if r.status == ERROR:
            bucket.append(f"{r.check}: ERROR {r.message}")
        elif r.status != want:
            bucket.append(f"{r.check}: {r.status}, table says {want}")
        if r.mismatch:
            bucket.append(f"{r.check}: ledger mismatch")
    for f in fixtures:
        for check in table.get(f, {}):
            if (f, check) not in seen:
                problems[f].append(f"{check}: missing")
        if f not in table:
            problems[f].append("fixture not in the status table")
    return problems


def parse_tree(text):
    """Flatten a plurimean key-value report into {'a.b': 'value'}."""
    out, path = {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key, _, val = line.strip().partition(":")
        path[depth:] = [key]
        if val.strip():
            out[".".join(path)] = val.strip()
    return out


def family_problems(rc, report_text, mesh_text, csv_text, grid, n_thetas,
                    rms_max, metric_dev_max=1e-10):
    """Gate one `plurimean family ... --match ... --mesh --sweep-csv`."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    tree = parse_tree(report_text)
    for key, bound in (("match.rms", rms_max),
                       ("metric_deviation", metric_dev_max)):
        try:
            val = float(tree[key])
        except (KeyError, ValueError):
            problems.append(f"{key}: missing from the report")
            continue
        if not val < bound:
            problems.append(f"{key} = {val:g} not below {bound:g}")
    vertices = sum(1 for ln in mesh_text.splitlines() if ln.startswith("v "))
    if vertices != grid * grid:
        problems.append(f"{vertices} mesh vertices, want {grid * grid}")
    rows = len([ln for ln in csv_text.splitlines() if ln.strip()]) - 1
    if rows != n_thetas:
        problems.append(f"{rows} sweep CSV rows, want {n_thetas}")
    return problems


def flag_problems(label, c1, c2, want_c1, want_c2):
    problems = []
    if c1 != want_c1:
        problems.append(f"{label}: C1 {c1}, want {want_c1}")
    if c2 != want_c2:
        problems.append(f"{label}: C2 {c2}, want {want_c2}")
    return problems


def split_problems(label, reconstruction_error, bound=1e-10):
    if not reconstruction_error < bound:
        return [f"{label}: reconstruction error "
                f"{reconstruction_error:g} not below {bound:g}"]
    return []
