"""Reading the elapsed time out of the locked pair.

After locking, the two dark manifolds precess against each other at the
clock frequency.  Sign flips on one atom turn both dark states bright, a
ground-level beam splitter and a post-selection merge them onto a shared
lower level, and a detuned drive then lets the pair emit one photon whose
field phase equals the accumulated clock phase.  A quadrature fit recovers
it; sweeping the elapsed time maps out a line of slope equal to the clock
frequency.
"""

import math
from pathlib import Path

import numpy as np

from zenolock import readout as rd
from zenolock.svgplot import line_plot

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

config = rd.readout_config()
print(f"clock frequency {config.clock_frequency}, drive detuning {config.detuning}, "
      f"drive amplitude {config.drive_amplitude}")
model = rd.emission_model(config)
print(f"effective transfer coupling {model.effective_coupling():.4f} "
      f"(leading order coupling*drive/(4*detuning) = "
      f"{config.coupling * config.drive_amplitude / (4 * config.detuning):.4f})")
print(f"emitted-field oscillation frequency {model.beat_frequency():.4f}")

series = []
for phi in (0.0, math.pi):
    elapsed = phi / config.clock_frequency
    state, probability = rd.readout_chain(config, elapsed)
    trace = rd.emit_field_trace(state, model)
    print(f"\nclock phase {phi:.3f}: post-selection probability {probability:.3f}, "
          f"fitted field phase {trace.fitted_phase:+.4f}")
    series.append((trace.times, trace.quadrature, f"clock phase {phi:.2f}"))

line_plot(OUT / "readout_traces.svg", series,
          title="Emitted quadrature for two clock phases",
          xlabel="t_r", ylabel="mean quadrature")

elapsed_values = np.linspace(0.0, 0.28, 8)
phases = np.unwrap([rd.readout_phase(config, t) for t in elapsed_values])
slope, intercept = np.polyfit(elapsed_values, phases, 1)
print(f"\nphase sweep over {len(elapsed_values)} elapsed times: "
      f"slope {slope:.4f} (clock frequency {config.clock_frequency})")
line_plot(OUT / "readout_phase_sweep.svg",
          [(elapsed_values, phases, "fitted phase"),
           (elapsed_values, slope * elapsed_values + intercept, "linear fit")],
          title="Recovered phase vs elapsed time", xlabel="t_f", ylabel="phase [rad]")
print(f"\nplots written to {OUT}")
