"""Metric names, units and how each is computed from raw samples or spans.

BENCHMARK.json lists the same names; bench/tests checks that they agree.
"""

from __future__ import annotations

import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("op_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

BUILDERS = {
    "config.build_spectrum_model",
    "config.build_envelope",
    "config.build_pulse_pair",
    "config.build_integrator",
    "config.build_initial_state",
    "config.build_gate_spec",
    "config.config_with_overrides",
    "config.sweep_points",
}

PER_LAYER = (
    ("config.load_config.calls", "count"),
    ("config.load_config.busy_s", "s"),
    ("config.builders.busy_s", "s"),
    ("spectrum.build_spectrum.calls", "count"),
    ("spectrum.build_spectrum.busy_s", "s"),
    ("drive.derive_couplings.calls", "count"),
    ("drive.derive_couplings.busy_s", "s"),
    ("drive.classify_regime.busy_s", "s"),
    *(
        (f"dynamics.propagate_{tier}.{kind}", unit)
        for tier in ("rwa", "averaged", "bare")
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ),
    ("dynamics.propagate_rwa.beats_per_s", "1/s"),
    ("dynamics.propagate_averaged.sim_ns_per_s", "ns/s"),
    ("dynamics.propagate_bare.sim_ns_per_s", "ns/s"),
    ("dynamics.check_adiabatic_elimination.busy_s", "s"),
    ("dynamics.max_amp_err", "1"),
    ("dynamics.share", "1"),
    ("effective.EffectiveEvolution.calls", "count"),
    ("effective.EffectiveEvolution.busy_s", "s"),
    ("effective.evolution_matrix.calls", "count"),
    ("effective.evolution_matrix.busy_s", "s"),
    ("effective.diagonal_evolution_check.busy_s", "s"),
    ("effective.max_model_err", "1"),
    ("effective.share", "1"),
    ("gates.synthesize_gate.calls", "count"),
    ("gates.synthesize_gate.busy_s", "s"),
    ("gates.qubit_transfer_matrix.busy_s", "s"),
    ("gates.gate_fidelity.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "1"),
)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples above it.

    Returns (value, percentile, sample count).  With 10 samples or fewer
    no percentile qualifies and the maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(samples: list[dict], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    walls = [s["wall"] for s in samples]
    busy = sum(walls)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / busy,
        "points_per_s": sum(s["points"] for s in samples) / busy,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "op_cpu_s": statistics.median(s["cpu"] for s in samples),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced: list[dict], untraced: list[dict], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics from the spans and samples of one traced pass.

    Shares divide span time by the traced pass's unscaled operation time;
    the overhead compares probe-scaled times of the traced and the
    untraced pass.
    """
    out: dict[str, float] = {}
    traced_wall = sum(s["raw_wall"] for s in traced)

    def named(name: str) -> float:
        return tracer.busy(lambda n: n == name)

    def rate(total: float, busy: float) -> float:
        return total / busy if busy > 0 else 0.0

    for fn in ("config.load_config", "spectrum.build_spectrum", "drive.derive_couplings",
               "effective.EffectiveEvolution", "effective.evolution_matrix", "gates.synthesize_gate", "cli.main"):
        out[f"{fn}.calls"] = tracer.calls(fn)
        out[f"{fn}.busy_s"] = named(fn)
    out["config.builders.busy_s"] = tracer.busy(lambda n: n in BUILDERS)
    for fn in ("drive.classify_regime", "dynamics.check_adiabatic_elimination",
               "effective.diagonal_evolution_check", "gates.qubit_transfer_matrix", "gates.gate_fidelity"):
        out[f"{fn}.busy_s"] = named(fn)
    for tier in ("rwa", "averaged", "bare"):
        fn = f"dynamics.propagate_{tier}"
        out[f"{fn}.calls"] = tracer.calls(fn)
        out[f"{fn}.busy_s"] = named(fn)
        out[f"{fn}.self_s"] = tracer.self_time(fn)
    out["dynamics.propagate_rwa.beats_per_s"] = rate(
        tracer.counters["dynamics.propagate_rwa.beats"], out["dynamics.propagate_rwa.busy_s"])
    for tier in ("averaged", "bare"):
        fn = f"dynamics.propagate_{tier}"
        out[f"{fn}.sim_ns_per_s"] = rate(tracer.counters[f"{fn}.sim_ns"], out[f"{fn}.busy_s"])
    out["dynamics.max_amp_err"] = max((s["amp_err"] for s in traced if s["error"] is None), default=0.0)
    out["effective.max_model_err"] = max((s["model_err"] for s in traced if s["error"] is None), default=0.0)
    out["dynamics.share"] = tracer.busy(lambda n: n.startswith("dynamics.")) / traced_wall
    out["effective.share"] = tracer.busy(lambda n: n.startswith("effective.")) / traced_wall
    out["cli.self_s"] = tracer.self_time("cli.main")
    out["cli.bytes_written"] = bytes_written
    out["trace.overhead_frac"] = sum(s["wall"] for s in traced) / sum(s["wall"] for s in untraced) - 1.0
    return {name: out[name] for name, _ in PER_LAYER}
