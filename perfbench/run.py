"""Run a plurimean benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-warm --seed 1 --trace 0
    python3 perfbench/run.py --seed 1       # every workload in turn

Run from anywhere; the package under test is always this checkout's
src/plurimean.  The last output line of a workload is one JSON object
with correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Exit status 0 when
every correctness gate passed, 1 when one failed, 2 when the benchmark
could not run.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT, OUT = spec.ROOT, spec.OUT
BUDGET_S = 170.0   # one workload run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed gate)."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_environ():
    """One BLAS thread: the workloads are single-threaded Python, and a
    second BLAS thread would contend for the other core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, deadline):
    """Run child.py with argv; its JSON plus parent-side spawn/exit times."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT,
            env=child_environ(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"child {' '.join(argv)} ran out of time") from e
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv)} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"child {' '.join(argv)} printed no result") from e
    out["spawn"], out["exit"] = t0, t1
    return out


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ------------------------------------------------------------ running

def run_in_process(workload, seed, seconds, trace, size, deadline):
    """Set-up processes, then one process running the iterations; that
    one's set-up counts among the set-ups."""
    setups = []
    least, most = spec.SIZES[size]["setups"]
    while not trace and len(setups) < most - 1 and (
            len(setups) < least - 1 or sum(setups) < spec.SETUP_SECONDS):
        s = spawn(["setup", "--workload", workload, "--size", size],
                  deadline)
        setups.append(s["setup_done"] - s["spawn"])
    w = spawn(["run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--size", size], deadline)
    setups.append(w["setup_done"] - w["spawn"])
    return {"iterations": w["iterations"], "untraced": w["untraced"],
            "setups": setups, "peak_rss_mb": w["maxrss_mb"],
            "spins": w["spins"], "env": w["env"]}


def at_reference_speed(seconds, spins):
    """Seconds measured while the reference loop took median(spins),
    restated at the speed where it takes spec.REF_SPIN_S."""
    return seconds * spec.REF_SPIN_S / statistics.median(spins)


def end_to_end(workload, size, res):
    iters = res["iterations"]
    ops = [x for it in iters for x in it["ops_ms"]]
    n_min = spec.ops_per_iter(workload, size) * spec.min_iters(size)
    tail = spec.tail_percentile(n_min)
    wall = statistics.median(it["busy_s"] for it in iters)
    setup = statistics.median(res["setups"])
    values = {"wall_s": at_reference_speed(wall, res["spins"]),
              "setup_s": at_reference_speed(setup, res["spins"]),
              "wall_raw_s": wall, "setup_raw_s": setup,
              "spin_ms": 1e3 * statistics.median(res["spins"]),
              "peak_rss_mb": res["peak_rss_mb"],
              "op_p50_ms": percentile(ops, 50),
              "op_tail_ms": percentile(ops, tail)}
    ref = f"at the reference speed (loop {spec.REF_SPIN_S * 1e3:g} ms)"
    notes = {"wall_s": f"median of {len(iters)} iterations, {ref}",
             "wall_raw_s": "median iteration as measured; reported, not "
                           "bounded",
             "setup_raw_s": "median set-up as measured; reported, not "
                            "bounded",
             "spin_ms": f"median of {len(res['spins'])} reference loops on "
                        f"the picked CPUs; reported, not bounded",
             "setup_s": f"median of {len(res['setups'])} fresh processes, "
                        f"{ref}",
             "peak_rss_mb": "peak RSS of the measuring process",
             "op_p50_ms": f"{len(ops)} ops; reported, not bounded",
             "op_tail_ms": f"p{tail} of {len(ops)} ops; reported, not "
                           f"bounded" + (" (too few ops for a tail: the "
                                         "median)" if tail == 50 else "")}
    return values, notes


def per_layer(res):
    """The median traced iteration's layer values, so that the layer self
    times and unattributed_s add up to its trace.wall_s exactly."""
    iters = sorted(res["iterations"], key=lambda it: it["wall_s"])
    mid = iters[(len(iters) - 1) // 2]
    values = dict(mid["layers"])
    values["trace.overhead_s"] = mid["wall_s"] - statistics.median(
        it["wall_s"] for it in res["untraced"])
    return values


# ------------------------------------------------------------- output

def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload, seed, seconds, trace, size):
    deadline = time.monotonic() + BUDGET_S
    res = run_in_process(workload, seed, seconds, trace, size, deadline)
    iters = res["iterations"]
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    problems = [p for it in iters for p in it["problems"]]
    env = {**res["env"], "nproc": nproc(), "cpu0_cache": cache_sizes(),
           "pythonhashseed": "0", "commit": git_commit(),
           "workload": workload, "seed": seed, "trace": trace, "size": size}
    print(f"perfbench {workload} seed={seed} trace={trace} size={size}")
    print("env " + json.dumps(env))
    for p in problems:
        print(f"GATE FAILED {p}")
    print(f"failed_frac {failed / attempted:g} ({failed}/{attempted} ops)")
    if trace:
        layers = per_layer(res)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        values = {name: layers[name] for name in units}
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
        covered = sum(values[f"layer.{k}.self_s"] for k in spec.LAYERS)
        print(f"sum of layer self times + unattributed_s = "
              f"{covered + values['unattributed_s']:.6f} s; "
              f"trace.wall_s = {values['trace.wall_s']:.6f} s")
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"env": env, "iterations": [
            {k: it[k] for k in ("wall_s", "spans")}
            for it in iters]}))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(workload, size, res)
        for name, unit in spec.END_TO_END + spec.REPORTED:
            print(f"{name} {values[name]:.6g} {unit}  ({notes[name]})")
        units = dict(spec.END_TO_END)
        values = {name: values[name] for name in units}
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=spec.WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time per run; every run makes at least "
                         "three iterations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(spec.SIZES), default="full",
                    help="'tiny' is for the self-tests")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "plurimean" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/plurimean under {ROOT}\n")
        return 2
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=ROOT, env=child_environ(),
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        workloads = [args.workload] if args.workload else spec.WORKLOADS
        ok = [run_workload(w, args.seed, args.seconds, args.trace, args.size)
              for w in workloads]
    except (BenchError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
