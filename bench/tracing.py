"""Span recorder for the traced run; untimed runs never import this module.

`Tracer.install()` replaces each traced public name wherever a ddsim
module binds it (for example `ddsim.cli.propagate_rwa` as well as
`ddsim.dynamics.propagate_rwa` and the package attribute), and selected
EffectiveEvolution methods on the class.  `uninstall()` puts every
original back.  A span is [name, start, end, parent index, op id]; spans
stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

from reference import HBAR

# (module, attribute, span name)
FUNCTIONS = (
    ("ddsim.cli", "main", "cli.main"),
    ("ddsim.config", "load_config", "config.load_config"),
    ("ddsim.config", "build_spectrum_model", "config.build_spectrum_model"),
    ("ddsim.config", "build_envelope", "config.build_envelope"),
    ("ddsim.config", "build_pulse_pair", "config.build_pulse_pair"),
    ("ddsim.config", "build_integrator", "config.build_integrator"),
    ("ddsim.config", "build_initial_state", "config.build_initial_state"),
    ("ddsim.config", "build_gate_spec", "config.build_gate_spec"),
    ("ddsim.config", "config_with_overrides", "config.config_with_overrides"),
    ("ddsim.config", "sweep_points", "config.sweep_points"),
    ("ddsim.spectrum", "build_spectrum", "spectrum.build_spectrum"),
    ("ddsim.drive", "derive_couplings", "drive.derive_couplings"),
    ("ddsim.drive", "classify_regime", "drive.classify_regime"),
    ("ddsim.drive", "enforce_two_photon_resonance", "drive.enforce_two_photon_resonance"),
    ("ddsim.dynamics", "propagate_rwa", "dynamics.propagate_rwa"),
    ("ddsim.dynamics", "propagate_averaged", "dynamics.propagate_averaged"),
    ("ddsim.dynamics", "propagate_bare", "dynamics.propagate_bare"),
    ("ddsim.dynamics", "check_adiabatic_elimination", "dynamics.check_adiabatic_elimination"),
    ("ddsim.dynamics", "solve_ivp", "dynamics.solve_ivp"),
    ("ddsim.effective", "effective_hamiltonian", "effective.effective_hamiltonian"),
    ("ddsim.effective", "evolution_matrix", "effective.evolution_matrix"),
    ("ddsim.effective", "diagonal_evolution_check", "effective.diagonal_evolution_check"),
    ("ddsim.effective", "apply", "effective.apply"),
    ("ddsim.gates", "synthesize_gate", "gates.synthesize_gate"),
    ("ddsim.gates", "qubit_transfer_matrix", "gates.qubit_transfer_matrix"),
    ("ddsim.gates", "gate_fidelity", "gates.gate_fidelity"),
    ("ddsim.gates", "polarization_leakage", "gates.polarization_leakage"),
    ("ddsim.gates", "schedule_stirap", "gates.schedule_stirap"),
)

# EffectiveEvolution: the constructor, and the pointwise methods the CLI
# calls per saved time.  Pointwise calls nested in another effective span
# (quadrature integrands) are not recorded, to keep the overhead bounded.
METHODS = (
    ("__init__", "effective.EffectiveEvolution"),
    ("theta", "effective.EffectiveEvolution.theta"),
    ("omega", "effective.EffectiveEvolution.omega"),
    ("E_plus", "effective.EffectiveEvolution.E_plus"),
    ("E_minus", "effective.EffectiveEvolution.E_minus"),
)


def _pulses(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["pulses"]


def _couplings(args, kwargs):
    return args[0] if args else kwargs["couplings"]


# per-call counters: span name -> (counter name, value from the call's arguments)
COUNTERS = {
    "dynamics.propagate_rwa": (
        "beats",
        lambda a, k: _pulses(a, k).duration * abs(_couplings(a, k).delta_qubit) / (2.0 * math.pi * HBAR),
    ),
    "dynamics.propagate_averaged": ("sim_ns", lambda a, k: _pulses(a, k).duration),
    "dynamics.propagate_bare": ("sim_ns", lambda a, k: _pulses(a, k).duration),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, nested_skip: bool = False):
        tracer = self
        layer = name.split(".")[0]
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if nested_skip and stack and tracer.spans[stack[-1]][0].startswith(layer + "."):
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "ddsim" or key.startswith("ddsim.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = sys.modules["ddsim.effective"].EffectiveEvolution
        for attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, nested_skip=attr != "__init__"))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reporting -------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """Per-span duration and self time (duration minus direct children)."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        return dur, [d - c for d, c in zip(dur, child)]

    def busy(self, pred) -> float:
        """Time covered by spans matching pred, counting nested matches once."""
        dur, _ = self.durations()
        total = 0.0
        for i, s in enumerate(self.spans):
            if not pred(s[0]):
                continue
            p = s[3]
            while p >= 0 and not pred(self.spans[p][0]):
                p = self.spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        _, own = self.durations()
        return sum(t for s, t in zip(self.spans, own) if s[0] == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
