"""Locking the relative phase of two detuned atoms with repeated measurements.

The pair starts in the antisymmetric dark state of a shared cavity mode.
A frequency split 2*Delta rotates it toward the bright symmetric state at
rate Delta; injecting n photons and coupling for half a collective Rabi
flop maps any bright amplitude onto a changed photon number, and watching
the photon number freezes the rotation.  More frequent cycles lock better,
with survival following exp(-Delta^2 * cycle * t).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np

from zenolock import zeno_two_level as z2
from zenolock.svgplot import line_plot

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

DELTA = 2.0


def one_cycle(cycle):
    """The protocol over exactly one cycle of the given length."""
    config = z2.config_for_cycle_time(cycle, cycle, half_difference=DELTA)
    return config, z2.run_protocol(dataclasses.replace(config, final_time=config.cycle_time))


# the photon check fails on the bright component the free drift built up
config, trace = one_cycle(1e-3)
amp = math.sqrt(trace.p_error_per_cycle[-1])
print(f"one cycle with tau = {config.free_interval:.4g}: the photon check finds a bright "
      f"amplitude {amp:.3e} (first order predicts Delta*tau = {DELTA * config.free_interval:.3e})")

cycle_config, trace = one_cycle(0.005)
pe = z2.pe_analytic(cycle_config.deltas(), cycle_config.free_interval)
print(f"one full cycle: success probability {trace.p_success[-1]:.8f} "
      f"(closed form 1 - (Delta*tau)^2 = {1 - pe:.8f})")
print(f"state fidelity with a fresh dark state: "
      f"{trace.final_state.fidelity(z2.subradiant_state(cycle_config, 0)):.10f}")

series = []
print("\nsurvival curves (both run to the analytic 10% point):")
for cycle in (0.001, 0.05):
    final_time = math.log(10.0) / (DELTA**2 * cycle)
    config = z2.config_for_cycle_time(cycle, final_time, half_difference=DELTA)
    trace = z2.run_protocol(config)
    deviation = np.max(np.abs(trace.p_success[1:] / trace.analytic_p_s[1:] - 1))
    print(f"  cycle {cycle:>6}: {int(final_time / cycle):>7} cycles, "
          f"P_S(end) = {trace.p_success[-1]:.4f}, "
          f"max deviation from exp(-Delta^2 c t): {deviation:.2%}")
    series.append((trace.times, trace.p_success, f"numeric, cycle {cycle}"))
    series.append((trace.times, trace.analytic_p_s, f"closed form, cycle {cycle}"))

line_plot(OUT / "zeno_two_level_survival.svg", series,
          title="Dark-state survival under repeated photon-number checks",
          xlabel="t", ylabel="P_S")
print(f"\nplot written to {OUT}")
