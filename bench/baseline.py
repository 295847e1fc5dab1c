"""One-shot baseline report (not a benchmark workload).

    python3 bench/baseline.py

Times the long runs that are too slow to be workload operations, on the
acceptance-test systems:

* criterion 4 HADAMARD (1 level, Delta = 3000 ueV, l = 5119 beat periods):
  synthesis, then propagate_rwa from |0> and from |1>;
* criterion 6 nominal STIRAP (3 levels, T = 30 ns): propagate_rwa and
  propagate_averaged;
* 201 evolution_matrix calls on the save grid of a fresh EffectiveEvolution
  for the criterion-2 system at r = 0.05.

The rhs-call counts come from the `nfev` of the solve_ivp result, read
through a wrapper on `ddsim.dynamics.solve_ivp` that is removed again at
the end.  Takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import ddsim
    import ddsim.dynamics as dyn
    from ddsim import Envelope, ExcitedLevel, GateSpec, IntegratorSettings, PulsePair, SpectrumModel, StateVector
    from ddsim.units import HBAR

    nfev: list[int] = []
    solve_ivp = dyn.solve_ivp

    def counting(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(int(sol.nfev))
        return sol

    def ladder(eps1, base, spacing, n, d1=2.0):
        levels = tuple(ExcitedLevel(base + spacing * j, 2.0, d1) for j in range(n))
        return SpectrumModel(epsilon0=0.0, epsilon1=eps1, excited_levels=levels)

    def timed(label, fn):
        nfev.clear()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        entry = {"wall_s": wall}
        if nfev:
            entry["rhs_calls"] = sum(nfev)
        report[label] = entry
        extra = f", {entry['rhs_calls']} rhs calls" if nfev else ""
        print(f"{label}: {wall:.3f} s{extra}", flush=True)
        return out

    report: dict = {}
    flat = Envelope("constant")
    dyn.solve_ivp = counting
    try:
        # criterion 4, HADAMARD
        sp = ladder(3000.0, 6500.0, 0.0, 1)
        om0, om1 = ddsim.enforce_two_photon_resonance(sp, 6400.0)
        amp = 50.0 / (1.0 + math.sqrt(2.0))
        ref = PulsePair(amp0=amp, amp1=amp, envelope0=flat, envelope1=flat, omega0=om0, omega1=om1, duration=1.0)
        ham = ddsim.effective_hamiltonian(ddsim.derive_couplings(sp, ref), 0.0, 0.0)
        sol = timed("c4_hadamard.synthesize_gate",
                    lambda: ddsim.synthesize_gate(GateSpec(target="HADAMARD", l=5119, l_max=8192), ham, sp.delta))
        pair = PulsePair(amp0=sol.amplitude_scale * amp, amp1=sol.amplitude_scale * sol.amplitude_ratio * amp,
                         envelope0=flat, envelope1=flat, omega0=om0, omega1=om1, duration=sol.duration,
                         phi0=sol.phase_offset)
        cs = ddsim.derive_couplings(sp, pair)
        st = IntegratorSettings(save_points=2)
        a = timed("c4_hadamard.propagate_rwa_from_0",
                  lambda: ddsim.propagate_rwa(cs, pair, StateVector.qubit(1, 0, 1), st))
        b = timed("c4_hadamard.propagate_rwa_from_1",
                  lambda: ddsim.propagate_rwa(cs, pair, StateVector.qubit(0, 1, 1), st))
        fid = ddsim.gate_fidelity(ddsim.qubit_transfer_matrix(a, b), ddsim.HADAMARD, unitarity_tol=0.05)
        report["c4_hadamard.exact_fidelity"] = fid
        print(f"c4_hadamard: T = {sol.duration:.4f} ns, exact fidelity {fid:.5f}")

        # criterion 6, nominal STIRAP
        duration = 30.0
        dq = 7255 * math.pi * HBAR / duration
        sp = ladder(dq, dq + 2500.0, 20.0, 3)
        om0, om1 = ddsim.enforce_two_photon_resonance(sp, dq + 2400.0)
        amp = 117.215
        probe = PulsePair(amp0=amp, amp1=amp, envelope0=flat, envelope1=flat, omega0=om0, omega1=om1, duration=duration)
        ham = ddsim.effective_hamiltonian(ddsim.derive_couplings(sp, probe), 0.0, 0.0)
        sched = ddsim.schedule_stirap("counterintuitive", Envelope("gaussian", center=15.0, width=2.0), 3.4,
                                      duration, ham=ham, delta_qubit=sp.delta)
        pair = PulsePair(amp0=amp, amp1=amp, envelope0=sched.envelope0, envelope1=sched.envelope1,
                         omega0=om0, omega1=om1, duration=duration)
        cs = ddsim.derive_couplings(sp, pair)
        rwa = timed("c6_stirap.propagate_rwa",
                    lambda: ddsim.propagate_rwa(cs, pair, StateVector.qubit(1, 0, 3), st))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            timed("c6_stirap.propagate_averaged",
                  lambda: ddsim.propagate_averaged(cs, pair, StateVector.qubit(1, 0, 3, frame="averaged"), st))
        report["c6_stirap.transfer"] = float(rwa.populations[-1, 1])

        # 201 evolution_matrix calls, criterion-2 system at r = 0.05
        sp = ladder(2000.0, 4500.0, 20.0, 5)
        om0, om1 = ddsim.enforce_two_photon_resonance(sp, 4400.0)
        env = Envelope("sin2", center=0.125, width=0.25)
        pair = PulsePair(amp0=50.0, amp1=50.0, envelope0=env, envelope1=env, omega0=om0, omega1=om1, duration=0.25)
        ham = ddsim.effective_hamiltonian(ddsim.derive_couplings(sp, pair), 0.0, 0.0)
        ev = ddsim.EffectiveEvolution(ham, env, env, 0.0, 0.25)

        def grid():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return [ddsim.evolution_matrix(ev, sp, 0.0, 0.25 * j / 200) for j in range(201)]

        timed("effective.evolution_matrix_x201", grid)
    finally:
        dyn.solve_ivp = solve_ivp

    report["python"] = platform.python_version()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    if not (Path.cwd() / "src" / "ddsim" / "__init__.py").is_file():
        sys.stderr.write("baseline: ./src/ddsim not found; run from the root of a ddsim checkout\n")
        sys.exit(2)
    sys.exit(main())
