"""ddsim benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload gate-design --seed 1 --seconds 20 --trace 0

Run from the repository root; ddsim is imported from ./src.  With
--trace 0 the run prints every end-to-end metric, with --trace 1 every
per-layer metric; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.

This process generates the seeded inputs, computes (or loads from
bench/.work/cache) the independent reference, then starts the measured
process (worker.py) and waits for it.  In a timed run it first starts
SETUP_REPEATS set-up-only processes; setup_s is the median of their set-up
times, each scaled by the pure-Python probe that process runs right after
its set-up (see worker.py).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc before numpy loads, here and in children."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_for(workload: str, seed: int, ops: list[dict]) -> Path:
    """Reference outputs for the pool, cached per seed and reference source."""
    import checks
    import gen

    digest = hashlib.sha256(gen.canonical(ops))
    for name in ("reference.py", "checks.py", "gen.py"):
        digest.update((BENCH / name).read_bytes())
    path = BENCH / ".work" / "cache" / f"{workload}-{seed}-{digest.hexdigest()[:16]}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        data = [checks.expected(op) for op in ops]
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data))
        tmp.replace(path)
    return path


def spawn(args, mode: str, expected: Path, work: Path, timeout: float) -> dict:
    result = work / f"result-{mode}.json"
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--spawn-time", repr(t_spawn), "--expected", str(expected),
         "--work", str(work / mode), "--result", str(result), "--mode", mode],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"measured process ({mode}) exited {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    import gen
    import metrics
    import worker

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    ops = gen.generate(args.workload, args.seed)
    expected = expected_for(args.workload, args.seed, ops)
    work = BENCH / ".work" / f"run-{os.getpid()}"
    results = BENCH / ".work" / "results"
    timeout = 150.0
    try:
        if args.trace:
            res = spawn(args, "trace", expected, work, timeout)
            results.mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "trace" / "spans.json", results / f"{args.workload}-seed{args.seed}-spans.json")
            values = res["per_layer"]
            units = dict(metrics.PER_LAYER)
        else:
            raw_setups = [spawn(args, "setup", expected, work, timeout) for _ in range(SETUP_REPEATS)]
            setups = [s["setup_s"] * worker.NOMINAL_PY_PROBE_S / s["python_probe"] for s in raw_setups]
            res = spawn(args, "timed", expected, work, timeout)
            values = metrics.end_to_end(res["samples"], statistics.median(setups), res["peak_rss_mb"])
            units = dict(metrics.END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = res["samples"]
    failed = [s for s in samples if not s["ok"]]
    for s in failed:
        print(f"FAILED op {s['op']}: {s['error'] or 'check'} (amp_err={s['amp_err']:.3g}, "
              f"model_err={s['model_err']:.3g})")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        value, pct, n = metrics.tail([s["wall"] for s in samples])
        raw = sum(s["raw_wall"] for s in samples)
        print(f"op_tail_s is p{pct:.1f} of {n} operations ({res['passes']} passes of {len(ops)}); "
              f"setup_s is the median of {SETUP_REPEATS} set-ups")
        print(f"times are scaled to the nominal probe speed; unscaled: {len(samples) / raw:.6g} ops/s over "
              f"{raw:.3f} s, median probe {statistics.median(s['probe'] for s in samples):.4f} s "
              f"(nominal {worker.NOMINAL_PROBE_S} s)")
    print(f"fail_ratio = {len(failed) / len(samples):.6g} ({len(failed)} of {len(samples)})")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "versions": {pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "ops_per_pass": len(ops),
        "samples": len(samples),
        "passes": res.get("passes", 3),
        "per_op_counts": [gen.exact_counts(op) for op in ops],
        "counters": res.get("counters", {}),
        "setup_samples": setups if not args.trace else [],
        "setup_samples_unscaled": [s["setup_s"] for s in raw_setups] if not args.trace else [],
    }
    print("record: " + json.dumps(record, sort_keys=True))
    out = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": out, "samples": samples}, fh, indent=1)
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    if not (Path.cwd() / "src" / "ddsim" / "__init__.py").is_file():
        sys.stderr.write("bench: ./src/ddsim not found; run from the root of a ddsim checkout\n")
        sys.exit(2)
    sys.exit(main())
