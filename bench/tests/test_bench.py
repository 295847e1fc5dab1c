"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q bench/tests

They take a few minutes: two short benchmark runs and the criterion-4
HADAMARD propagation (l = 5119 beat periods) are included.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402

import ddsim  # noqa: E402
from ddsim import Envelope, ExcitedLevel, IntegratorSettings, PulsePair, SpectrumModel, StateVector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first, second = gen.generate(workload, 7), gen.generate(workload, 7)
    assert gen.canonical(first) == gen.canonical(second)
    assert gen.canonical(first) != gen.canonical(gen.generate(workload, 8))
    # the config files the CLI workloads read are byte-identical too
    dd = worker.load_ddsim(ROOT)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = worker.Workload(dd, first, [{}] * len(first), tmp_path / "a")
    b = worker.Workload(dd, second, [{}] * len(second), tmp_path / "b")
    for path in sorted((tmp_path / "a").glob("*.json")):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert len(a.inputs) == len(b.inputs) == len(first)


# ---------------------------------------------------------------------
# reference propagator against the seed-commit propagators
# ---------------------------------------------------------------------


def _ladder(eps1, base, spacing, n, d1=2.0):
    levels = tuple(ExcitedLevel(base + spacing * j, 2.0, d1) for j in range(n))
    return SpectrumModel(epsilon0=0.0, epsilon1=eps1, excited_levels=levels)


def _reference(sp, pair, block):
    pulses = {"amp0": pair.amp0, "amp1": pair.amp1, "omega0": pair.omega0, "duration": pair.duration,
              "phi0": pair.phi0, "phi1": pair.phi1, "envelope0": block, "envelope1": block}
    return ref.System(sp.manifold_energies, sp.dipoles_to_0.real, sp.dipoles_to_1.real, sp.delta, pulses)


def _criterion2_cases():
    sp = _ladder(2000.0, 4500.0, 20.0, 5)
    om0, om1 = ddsim.enforce_two_photon_resonance(sp, 4400.0)
    env = Envelope("sin2", center=0.125, width=0.25)
    for amp in (20.0, 50.0, 100.0):
        pair = PulsePair(amp0=amp, amp1=amp, envelope0=env, envelope1=env, omega0=om0, omega1=om1, duration=0.25)
        yield f"c2-amp{amp:g}", sp, pair, {"shape": "sin2"}


def _criterion4_cases():
    flat = Envelope("constant")
    systems = [
        ("NOT", _ladder(15.0, 2015.0, 0.0, 1), 1915.0, 50.0, 15),
        ("PHASE", _ladder(5.0, 2005.0, 0.0, 1, d1=0.2), 1905.0, 50.0, 10),
        ("HADAMARD", _ladder(3000.0, 6500.0, 0.0, 1), 6400.0, 50.0 / (1.0 + math.sqrt(2.0)), 5119),
    ]
    for target, sp, omega0, amp, l in systems:
        om0, om1 = ddsim.enforce_two_photon_resonance(sp, omega0)
        probe = PulsePair(amp0=amp, amp1=amp, envelope0=flat, envelope1=flat, omega0=om0, omega1=om1, duration=1.0)
        ham = ddsim.effective_hamiltonian(ddsim.derive_couplings(sp, probe), 0.0, 0.0)
        sol = ddsim.synthesize_gate(ddsim.GateSpec(target=target, l=l, l_max=8192), ham, sp.delta)
        s, x = sol.amplitude_scale, sol.amplitude_ratio
        pair = PulsePair(amp0=s * amp, amp1=s * x * amp, envelope0=flat, envelope1=flat, omega0=om0, omega1=om1,
                         duration=sol.duration, phi0=sol.phase_offset)
        yield f"c4-{target}", sp, pair, None


CASES = list(_criterion2_cases()) + list(_criterion4_cases())


@pytest.mark.parametrize("tier", ["rwa", "averaged"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_reference_matches_seed_propagators(case, tier):
    _, sp, pair, block = case
    cs = ddsim.derive_couplings(sp, pair)
    settings = IntegratorSettings(save_points=5)
    fn = ddsim.propagate_rwa if tier == "rwa" else ddsim.propagate_averaged
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for psi in ((1.0, 0.0), (0.0, 1.0)):
            traj = fn(cs, pair, StateVector.qubit(*psi, sp.n_excited, frame=tier), settings)
            want = _reference(sp, pair, block).propagate(tier, psi, traj.times)
            assert np.max(np.abs(traj.amplitudes - want)) <= 1e-8


def test_reference_model_matches_seed_evolution_matrix():
    _, sp, pair, block = CASES[1]
    ham = ddsim.effective_hamiltonian(ddsim.derive_couplings(sp, pair), 0.0, 0.0)
    ev = ddsim.EffectiveEvolution(ham, pair.envelope0, pair.envelope1, 0.0, pair.duration)
    times = np.linspace(0.0, pair.duration, 9)
    want = _reference(sp, pair, block).model_matrices(times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = np.array([ddsim.evolution_matrix(ev, sp, 0.0, t).matrix for t in times])
    assert np.max(np.abs(got - want)) <= 1e-9


# An effective run with trapezoid pulses (a model-check style draw).  The
# seed commit's adaptive quad in EffectiveEvolution does not split at the
# ramp kinks and stops early, so the window-end model phases are about
# 5e-7 off; 3.5% of such draws miss the 1e-9 bar, by up to 4e-6, which is
# why model-check has no trapezoid pulses.  Strict xfail: once the model
# is fixed this passes, and trapezoid pulses can go back into model-check.
TRAPEZOID_EFFECTIVE = {
    "mode": "effective",
    "spectrum": {"n_levels": 5, "shape": "uniform", "delta": 11.576052656888564, "omega_exc": 1844.6938240802585,
                 "spacing": 19.18010182358241, "dipole0": 1.9954390501932604, "dipole1": 2.0576876254213032,
                 "jitter": 0.06401505106623301, "seed": 285927460},
    "pulses": {"amp0": 111.53545318890248, "amp1": 89.61311352878884, "omega0": 1738.7143836483287,
               "phi0": 6.2103386666055655, "phi1": 2.1857121604704495, "duration": 4.31468183155562,
               "envelope0": {"shape": "trapezoid", "ramp": 0.9440424406264916},
               "envelope1": {"shape": "trapezoid", "ramp": 0.9440424406264916}},
    "integrator": {"save_points": 801},
    "initial_state": {"alpha": [-0.2405326925014905, 0.6812070105816536],
                      "beta": [-0.13478951593348756, -0.2974105348914918]},
    "output": {"prefix": "op3"},
}


@pytest.mark.xfail(strict=True, reason="seed-commit quad misses trapezoid kinks (bench/README.md)")
def test_trapezoid_model_defect(tmp_path):
    op = {"kind": "cli", "command": "run", "config": TRAPEZOID_EFFECTIVE, "points": 1}
    dd = worker.load_ddsim(ROOT)
    run = worker.Workload(dd, [op], [checks.expected(op)], tmp_path)
    samples: list[dict] = []
    run.run_pass(samples)
    assert samples[0]["error"] is None
    assert samples[0]["model_err"] <= checks.MODEL_TOL, samples[0]["model_err"]


# ---------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------


def test_planted_wrong_amplitude_is_counted(tmp_path, monkeypatch):
    ops = gen.generate("gate-design", 3)[:1]  # the cheapest stratum
    expected = [checks.expected(op) for op in ops]
    dd = worker.load_ddsim(ROOT)
    run = worker.Workload(dd, ops, expected, tmp_path)

    clean: list[dict] = []
    run.run_pass(clean)
    assert [s["ok"] for s in clean] == [True]

    original = ddsim.propagate_rwa

    def planted(*args, **kwargs):
        traj = original(*args, **kwargs)
        traj.amplitudes[-1, 0] += 1e-5
        return traj

    monkeypatch.setattr(ddsim, "propagate_rwa", planted)
    bad: list[dict] = []
    run.run_pass(bad)
    assert [s["ok"] for s in bad] == [False]
    assert bad[0]["error"] is None and bad[0]["amp_err"] > checks.AMP_TOL


# ---------------------------------------------------------------------
# printed metrics against BENCHMARK.json
# ---------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "model-check", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    assert {m["name"] for m in table} <= printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "gate-design", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
