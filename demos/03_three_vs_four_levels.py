"""Why the readout scheme needs four levels per atom, not three.

To read a phase the pair must hold a superposition of two locked dark
states.  With V-configuration atoms both transitions share the ground
state, so an atom in |G> can absorb a measurement photon from the other
mode; the dark state is no protection because the two absorption paths end
in different states and cannot interfere.  Giving each transition its own
ground level closes both manifolds and the absorption channel vanishes
identically.
"""

from pathlib import Path

import numpy as np

from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2
from zenolock.svgplot import line_plot

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

print("double-excitation absorption probability during one measurement window")
print(f"{'photons':>8} {'three-level':>14} {'four-level':>12}")
for n in (1, 2, 4, 8):
    tau_m = z2.half_flop_time(2.0, n)
    three = zm.three_level_config(coupling=2.0, photon_number=n)
    four = zm.four_level_config_from_deltas(0.0, 0.0, cycle_time=2 * tau_m,
                                            final_time=2 * tau_m, photon_number=n)
    four = zm.FourLevelConfig(mode_frequencies=four.mode_frequencies,
                              atom_a=four.atom_a, atom_b=four.atom_b, coupling=2.0,
                              photon_number=n, free_interval=tau_m,
                              measure_interval=tau_m, final_time=2 * tau_m)
    print(f"{n:>8} {zm.leakage(three):>14.3e} "
          f"{zm.leakage(four):>12.1e}")

print("\nfour-level protocol with both manifolds split by Delta = 2:")
config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001,
                                          final_time=100.0)
trace = zm.run_four_level_protocol(config)
deviation = np.max(np.abs(trace.p_success[1:] / trace.analytic_p_s[1:] - 1))
print(f"  P_S(100) = {trace.p_success[-1]:.4f} "
      f"(closed form {trace.analytic_p_s[-1]:.4f}, max deviation {deviation:.2%})")
print(f"  cross-manifold population at the end: "
      f"{zm.cross_manifold_population(trace.final_state):.1e}")

line_plot(OUT / "four_level_survival.svg",
          [(trace.times, trace.p_success, "numeric"),
           (trace.times, trace.analytic_p_s, "closed form")],
          title="Four-level pair survival", xlabel="t", ylabel="P_S")
print(f"\nplot written to {OUT}")
