"""The benchmark's child processes.  Each prints one JSON object as the
last line of its standard output.

    child.py setup --workload W --size full
        import plurimean and build the workload's fixtures, nothing else
    child.py run   --workload W --seed N --seconds S --trace 0|1 --size full
        set up, then run the workload's iterations in this process

Timestamps are time.monotonic(), a system-wide clock, so the parent can
compare them with its own spawn and exit times.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

import gates
import spec
from spans import Tracer, attribute, layer_values

clock = time.monotonic
ROOT, OUT = spec.ROOT, spec.OUT


# ------------------------------------------------------------- set-up

def import_plurimean():
    """Import the CLI (and with it numpy and sympy); return (start, end)
    and refuse a plurimean that is not this checkout's src/."""
    t0 = clock()
    import plurimean.cli  # noqa: F401
    t1 = clock()
    import plurimean
    src = (ROOT / "src" / "plurimean").resolve()
    if Path(plurimean.__file__).resolve().parent != src:
        sys.exit(f"plurimean was imported from {plurimean.__file__}, "
                 f"not from {src}")
    return t0, t1


def workload_fixtures(workload, size):
    if workload.startswith("verify"):
        return spec.SIZES[size]["verify_fixtures"]
    if workload == "family-sweep":
        return ("catenoid", "helicoid")
    return ()


def build_fixtures(names):
    """Build each fixture on a cold cache; {name: seconds}."""
    from plurimean import fixtures
    build = {}
    for name in names:
        t0 = clock()
        fixtures.get_fixture(name)
        build[name] = clock() - t0
    return build


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def process_env():
    import numpy
    import sympy
    from plurimean import kernels
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernels_use_numba": bool(kernels.USING_NUMBA),
            "blas_threads": blas_threads()}


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------- workloads

def spin():
    """Seconds the reference loop (spec.SPIN_LOOPS steps of pure Python)
    takes here and now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(spec.SPIN_LOOPS):
        s += i * i
    return time.perf_counter() - t0


class CpuPicker:
    """Keeps the process on the least slowed of the CPUs it may use, and
    records the reference loop's times on the CPU it picked.

    On a shared host each CPU of this machine slows to as much as 1.6
    times its speed for seconds to minutes, each on its own schedule.
    Called between ops, at most every `every` seconds, it times the
    reference loop on each CPU and pins the process to the fastest; the
    ops themselves are timed without it."""

    def __init__(self, every=0.25):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.every = every
        self.last = -every
        self.spins = []

    def __call__(self):
        if clock() - self.last < self.every:
            return
        spins = {}
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            spins[cpu] = (spin(), spin())
        best = min(spins, key=lambda cpu: min(spins[cpu]))
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best})
        self.spins += spins[best]
        self.last = clock()


def _no_pick():
    pass


def _report_counts(results):
    return {"errors": sum(r.status == gates.ERROR for r in results),
            "mismatches": sum(bool(r.mismatch) for r in results),
            "skipped": sum(r.status == "SKIPPED" for r in results)}


def _check_busy(results):
    busy = {}
    for r in results:
        busy[r.check] = busy.get(r.check, 0.0) + r.runtime
    return busy


def _verify_outcome(results, op_s, table):
    """Gate the results of one pass; op_s: {fixture: seconds}."""
    names = list(op_s)
    problems = gates.verify_problems(results, table, names)
    return {"busy_s": sum(op_s.values()),
            "ops_ms": [1e3 * op_s[f] for f in names],
            "attempted": len(names),
            "failed": sum(bool(problems[f]) for f in names),
            "problems": [f"{f}: {p}" for f in names for p in problems[f]],
            "check_busy": _check_busy(results),
            "counts": _report_counts(results)}


class VerifyWarm:
    """Passes of pipeline.run, one fixture at a time, in seeded order."""

    def __init__(self, seed, size, end_to_end):
        from plurimean import pipeline
        self.pipeline = pipeline
        self.pick = CpuPicker() if end_to_end else _no_pick
        self.names = list(spec.SIZES[size]["verify_fixtures"])
        self.rng = random.Random(seed)
        self.table = gates.load_status_table()

    def iteration(self):
        order = self.names[:]
        self.rng.shuffle(order)
        results, op_s = [], {}
        for name in order:
            self.pick()
            t0 = clock()
            rep = self.pipeline.run(self.pipeline.RunConfig(fixtures=[name]))
            op_s[name] = clock() - t0
            results += rep.results
        return _verify_outcome(results, op_s, self.table)


class FamilySweep:
    """In-process `plurimean family` calls on the catenoid at theta=pi/2,
    matched against the helicoid, with mesh and sweep-CSV output."""

    def __init__(self, seed, size, end_to_end):
        from plurimean import cli
        self.cli = cli
        self.pick = CpuPicker() if end_to_end else _no_pick
        self.grid = spec.SIZES[size]["family_grid"]
        self.rms_max = spec.SIZES[size]["family_rms_max"]
        OUT.mkdir(parents=True, exist_ok=True)
        self.paths = {k: OUT / f"family-seed{seed}.{k}"
                      for k in ("obj", "csv", "txt")}

    def iteration(self):
        p = self.paths
        self.pick()
        t0 = clock()
        rc = self.cli.main(
            ["family", "--fixture", "catenoid", "--theta", "pi/2",
             "--grid", str(self.grid), "--match", "helicoid",
             "--mesh", str(p["obj"]), "--sweep-csv", str(p["csv"]),
             "--report", str(p["txt"])])
        op = clock() - t0
        problems = gates.family_problems(
            rc, *(p[k].read_text() if p[k].is_file() else ""
                  for k in ("txt", "obj", "csv")),
            self.grid, n_thetas=9, rms_max=self.rms_max)
        return {"busy_s": op, "ops_ms": [1e3 * op], "attempted": 1,
                "failed": int(bool(problems)), "problems": problems}


class FlagGrading:
    """The flag-demo path over a fixed element list, plus splits of seeded
    random pairs of orthogonal complex structures."""

    def __init__(self, seed, size, end_to_end):
        import numpy as np
        from plurimean import chartcalc, flags
        self.np, self.flags = np, flags
        self.pick = CpuPicker() if end_to_end else _no_pick
        rng = np.random.default_rng(seed)
        self.elements = []
        for label, kind, shape, c1, c2 in spec.flag_elements(size):
            frames = None
            if kind != "orthogonal":
                dims = shape if kind == "unitary" else shape[1]
                frames = self._unitary_frames(rng, dims)
            self.elements.append((label, kind, shape, frames, c1, c2))
        self.pairs = []
        for i, d in enumerate(spec.split_dims(size)):
            J0 = chartcalc.standard_J(d // 2)
            Q1, Q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0]
                      for _ in range(2))
            self.pairs.append((f"split{i}:d{d}", Q1 @ J0 @ Q1.T,
                               Q2 @ J0 @ Q2.T))

    def _unitary_frames(self, rng, dims):
        np = self.np
        n = sum(dims)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(M)
        rows = np.cumsum((0,) + tuple(dims))
        return [Q.conj().T[a:b] for a, b in zip(rows[:-1], rows[1:])]

    def _element(self, kind, shape, frames):
        np, flags = self.np, self.flags
        if kind == "unitary":
            return flags.canonical_unitary(shape, frames=frames)
        if kind == "orthogonal":
            n, r = shape
            fr = flags.standard_isotropic_frame(n, range(r))
            pos = {float(j): fr[j - 1:j] for j in range(1, r + 1)}
            rest = np.eye(n)[2 * r:]
            return flags.canonical_orthogonal(
                pos, n, real_frame=rest if rest.size else None)
        levels, _ = shape
        xi = sum(1j * lv * (fr.T @ fr.conj())
                 for lv, fr in zip(levels, frames))
        return flags.CanonicalElement(tag=flags.UNITARY, n=xi.shape[0],
                                      xi=xi, levels=tuple(levels),
                                      frames=tuple(frames))

    def iteration(self):
        flags = self.flags
        op_s, problems, failed = {}, [], 0
        for label, kind, shape, frames, want_c1, want_c2 in self.elements:
            self.pick()
            t0 = clock()
            try:
                grading = flags.grade(self._element(kind, shape, frames))
                c2 = flags.generation_check(grading)
                flags.cartan_split(grading)
                flags.bracket_grading_residual(grading)
            except Exception as e:   # a crash is a failed op, not a stop
                bad = [f"{label}: {type(e).__name__}: {e}"]
            else:
                bad = gates.flag_problems(label, grading.c1_pass, c2.passed,
                                          want_c1, want_c2)
            op_s[label] = clock() - t0
            failed += bool(bad)
            problems += bad
        ops_ms = [1e3 * t for t in op_s.values()]
        for label, J, Jt in self.pairs:
            self.pick()
            t0 = clock()
            try:
                err = flags.split_two_complex_structures(
                    J, Jt).reconstruction_error
            except Exception as e:
                err = float("nan")
                problems.append(f"{label}: {type(e).__name__}: {e}")
            op_s[label] = clock() - t0
            bad = gates.split_problems(label, err)
            failed += bool(bad)
            problems += bad
        return {"busy_s": sum(op_s.values()), "ops_ms": ops_ms,
                "attempted": len(self.elements) + len(self.pairs),
                "failed": failed, "problems": problems}


IN_PROCESS = {"verify-warm": VerifyWarm, "family-sweep": FamilySweep,
              "flag-grading": FlagGrading}


# -------------------------------------------------------------- roles

def role_setup(args):
    t0, t1 = import_plurimean()
    build = build_fixtures(workload_fixtures(args.workload, args.size))
    return {"setup_done": clock(), "import_s": t1 - t0, "build": build}


def _timed(work, tracer=None, setup=None):
    t0 = clock()
    it = work.iteration()
    t1 = clock()
    it["wall_s"] = t1 - t0
    if tracer is not None:
        it["spans"] = tracer.take()
        it["layers"] = layer_values(attribute(it["spans"], t0, t1), setup,
                                    it.pop("check_busy", {}),
                                    it.pop("counts", {}))
    return it


def role_run(args):
    """Iterations until --seconds have passed and at least min_iters; with
    --trace 1 each traced iteration follows an untraced one, so both see
    the same machine and their difference is the tracing overhead."""
    t0, t1 = import_plurimean()
    setup = {"import_s": t1 - t0,
             "build": build_fixtures(workload_fixtures(args.workload,
                                                       args.size))}
    setup_done = clock()
    # CPU picking serves the end-to-end metrics; a traced run attributes
    # time to spans instead
    work = IN_PROCESS[args.workload](args.seed, args.size,
                                     end_to_end=not args.trace)
    work.iteration()   # warm-up: first-call costs are not measured
    min_iters = spec.min_iters(args.size)
    tracer = Tracer(clock) if args.trace else None
    its, untraced = [], []
    t_begin = clock()
    while len(its) < min_iters or clock() - t_begin < args.seconds:
        if tracer is None:
            its.append(_timed(work))
            continue
        untraced.append(_timed(work))
        tracer.install()
        try:
            its.append(_timed(work, tracer, setup))
        finally:
            tracer.restore()
    return {"setup_done": setup_done, **setup,
            "env": process_env(), "iterations": its, "untraced": untraced,
            "spins": getattr(work.pick, "spins", []),
            "maxrss_mb": maxrss_mb()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--workload", choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(spec.SIZES), default="full")
    args = ap.parse_args(argv)
    role = {"setup": role_setup, "run": role_run}
    print(json.dumps(role[args.role](args)))


if __name__ == "__main__":
    main()
