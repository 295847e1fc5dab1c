"""The measured process: set-up, closed-loop operations and their checks.

Started by run.py, never by hand.  Its set-up time runs from the parent's
spawn timestamp (CLOCK_MONOTONIC, shared by both processes) to the start
of the first operation, and so covers interpreter start, importing ddsim
(with scipy and jsonschema), generating the inputs and loading the cached
reference.  One client sends the next operation only after the previous
one returned; output checks run between operations, outside their timing.

A fixed speed probe runs between operations: a DOP853 integration of a
driven three-level system written here with scipy, no ddsim code.  On a
shared virtual machine the CPU speed drifts by tens of percent within
seconds, so each operation's wall and CPU times are scaled by
NOMINAL_PROBE_S / (mean of the probes just before and after it): the time
the operation would take at the probe's nominal speed.  The unscaled times
are kept in the samples too.  A set-up-only process runs a pure-Python
probe right after its set-up, which scales its set-up time the same way.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import checks
import gen

# median probe time on the reference machine (2 vCPU Xeon VM, Python 3.11)
NOMINAL_PROBE_S = 0.030
# Time of one pass at nominal speed on the seed commit.  A timed run makes
# round(seconds / NOMINAL_PASS_S) passes, so every run of a workload has the
# same number of samples (and the same tail percentile) on any machine.
NOMINAL_PASS_S = {"gate-design": 8.0, "shaped-sweep": 9.0, "model-check": 9.0}
_PROBE_H = np.array([[0.0, 1.0, 0.5], [1.0, 0.3, 0.2], [0.5, 0.2, -1.0]], dtype=complex)
_PROBE_Y0 = np.array([1.0, 0.0, 0.0], dtype=complex)


def speed_probe() -> float:
    """Wall time of a fixed small DOP853 run (about 30 ms at nominal speed)."""
    t0 = time.perf_counter()
    solve_ivp(lambda t, y: -1j * (1.0 + 0.1 * np.cos(3.0 * t)) * (_PROBE_H @ y), (0.0, 24.0), _PROBE_Y0,
              method="DOP853", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


# median python_probe time on the reference machine, same conditions
NOMINAL_PY_PROBE_S = 0.022


def python_probe() -> float:
    """Wall time of a fixed pure-Python loop (about 22 ms at nominal speed).

    Interpreter start-up and imports follow this probe rather than the
    DOP853 one, so set-up times are scaled by it.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def load_ddsim(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ddsim
    import ddsim.cli  # noqa: F401  (binds ddsim.cli for the CLI workloads)

    if Path(ddsim.__file__).resolve().parent != src / "ddsim":
        raise ImportError(f"ddsim imported from {ddsim.__file__}, not from {src}")
    return ddsim


class Workload:
    """Materialized inputs of one pass and the code that runs them."""

    def __init__(self, dd, ops: list[dict], expected: list[dict], work: Path):
        self.dd = dd
        self.ops = ops
        self.expected = expected
        self.out_dir = work / "out"
        self.inputs = [self._materialize(i, op, work) for i, op in enumerate(ops)]

    def _materialize(self, i: int, op: dict, work: Path):
        dd = self.dd
        if op["kind"] == "gate":
            levels = tuple(
                dd.ExcitedLevel(energy=e, dipole_to_0=op["dipole0"], dipole_to_1=op["dipole1"])
                for e in op["energies"]
            )
            spectrum = dd.SpectrumModel(epsilon0=0.0, epsilon1=op["epsilon1"], excited_levels=levels)
            spec = dd.GateSpec(target=op["target"], l=op["l"])
            return spectrum, spec, dd.Envelope("constant"), dd.IntegratorSettings(save_points=2)
        path = work / f"op{i}.json"
        path.write_text(json.dumps(op["config"], indent=1))
        argv = [op["command"], str(path), "--out", str(self.out_dir)]
        return argv + (["--jobs", "1"] if op["command"] == "run" else [])

    def run(self, i: int):
        op = self.ops[i]
        if op["kind"] == "gate":
            return self._gate(op, *self.inputs[i])
        code = self.dd.cli.main(self.inputs[i])
        if code != 0:
            raise RuntimeError(f"ddsim {self.inputs[i][0]} exited {code}")
        return self.out_dir

    def _gate(self, op, spectrum, spec, env, settings) -> dict:
        """The criterion-4 loop: synthesize from reference sums, propagate, score."""
        dd = self.dd
        om0, om1 = dd.enforce_two_photon_resonance(spectrum, op["omega0"])
        amp = op["amp_ref"]
        reference_pair = dd.PulsePair(amp0=amp, amp1=amp, envelope0=env, envelope1=env,
                                      omega0=om0, omega1=om1, duration=1.0)
        ham = dd.effective_hamiltonian(dd.derive_couplings(spectrum, reference_pair), 0.0, 0.0)
        sol = dd.synthesize_gate(spec, ham, spectrum.delta)
        s, x = sol.amplitude_scale, sol.amplitude_ratio
        pair = dd.PulsePair(amp0=s * amp, amp1=s * x * amp, envelope0=env, envelope1=env,
                            omega0=om0, omega1=om1, duration=sol.duration,
                            phi0=sol.phase_offset, phi1=0.0)
        couplings = dd.derive_couplings(spectrum, pair)
        n = spectrum.n_excited
        from_zero = dd.propagate_rwa(couplings, pair, dd.StateVector.qubit(1, 0, n), settings)
        from_one = dd.propagate_rwa(couplings, pair, dd.StateVector.qubit(0, 1, n), settings)
        realized = dd.qubit_transfer_matrix(from_zero, from_one)
        fidelity = dd.gate_fidelity(realized, spec.target_matrix(), unitarity_tol=0.05)
        return {
            "duration": sol.duration,
            "amplitude_scale": s,
            "amplitude_ratio": x,
            "phase_offset": sol.phase_offset,
            "k": sol.k,
            "from_zero": from_zero.final_amplitudes,
            "from_one": from_one.final_amplitudes,
            "fidelity": fidelity,
        }

    def run_pass(self, samples: list[dict], tracer=None) -> int:
        """Run every op once, checked; returns bytes the CLI wrote (data files)."""
        written = 0
        probe = speed_probe()
        for i, op in enumerate(self.ops):
            self.out_dir.mkdir(parents=True, exist_ok=True)
            if tracer is not None:
                tracer.op = i
            error = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                output = self.run(i)
            except Exception as exc:  # a failed operation is counted, the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            before, probe = probe, speed_probe()
            scale = NOMINAL_PROBE_S / (0.5 * (before + probe))
            ok, amp_err, model_err = False, float("inf"), float("inf")
            if error is None:
                try:
                    ok, amp_err, model_err = checks.check(op, output, self.expected[i])
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    error = f"check failed: {type(exc).__name__}: {exc}"
                if op["kind"] == "cli":
                    written += sum(p.stat().st_size for p in self.out_dir.iterdir()
                                   if not p.name.endswith("_manifest.json"))
            samples.append({"op": i, "wall": (t1 - t0) * scale, "cpu": (c1 - c0) * scale,
                            "raw_wall": t1 - t0, "raw_cpu": c1 - c0, "probe": probe, "points": op["points"],
                            "ok": bool(ok), "amp_err": amp_err, "model_err": model_err, "error": error})
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--expected", required=True, help="cached reference JSON")
    parser.add_argument("--work", required=True, help="working directory for this process")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = parser.parse_args(argv)

    dd = load_ddsim(Path.cwd())
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = gen.generate(args.workload, args.seed)
    with open(args.expected) as fh:
        expected = json.load(fh)
    workload = Workload(dd, ops, expected, work)
    setup_s = time.perf_counter() - args.spawn_time
    result: dict = {"setup_s": setup_s}

    if args.mode == "setup":
        result["python_probe"] = sorted(python_probe() for _ in range(3))[1]
    elif args.mode == "timed":
        samples: list[dict] = []
        start = time.perf_counter()
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        for _ in range(passes):
            workload.run_pass(samples)
        elapsed = time.perf_counter() - start
        result.update(samples=samples, passes=passes, elapsed_s=elapsed)
    elif args.mode == "trace":
        import tracing

        # warm-up pass, traced pass, untraced pass: the overhead compares the
        # last two, which both run after lazy set-up inside ddsim finished
        warmup: list[dict] = []
        workload.run_pass(warmup)
        tracer = tracing.Tracer()
        traced: list[dict] = []
        tracer.install()
        try:
            written = workload.run_pass(traced, tracer)
        finally:
            tracer.uninstall()
        untraced: list[dict] = []
        workload.run_pass(untraced)
        tracer.dump(work / "spans.json")
        import metrics

        result.update(
            samples=warmup + traced + untraced,
            per_layer=metrics.per_layer(tracer, traced, untraced, written),
            counters=dict(tracer.counters),
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
