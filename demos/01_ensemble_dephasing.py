"""How an ensemble of detuned atoms loses its mean phase, and what locking buys.

Each atom of an N-atom ensemble carries a slightly different transition
frequency (Gaussian spread of 10% FWHM here).  Watching the ensemble-mean
cosine of the accumulated phases shows the coherence washing out on the
1/(2 pi sigma) timescale; locking all atoms to their ensemble-mean frequency
stretches that by sqrt(N).
"""

import math
from pathlib import Path

import numpy as np

from zenolock import dephasing as dp
from zenolock.svgplot import line_plot

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

ATOMS = 100
F0 = 100.0        # Hz
FWHM = 10.0       # Hz
REPLICAS = 4000
SEED = 7

sigma = dp.fwhm_to_sigma(FWHM)
print(f"N = {ATOMS} atoms at {F0} Hz, FWHM {FWHM} Hz -> sigma = {sigma:.4f} Hz")
print(f"coherence e-fold time, independent atoms: {1 / (dp.TWO_PI * sigma):.5f} s")
print(f"coherence e-fold time, locked ensemble:   "
      f"{math.sqrt(ATOMS) / (dp.TWO_PI * sigma):.5f} s")

config = dp.EnsembleConfig(ATOMS, F0, FWHM, SEED, time_max=0.1, time_points=201,
                           replicas=REPLICAS)
grid = config.time_grid
# the locked curve: the same 201 points stretched by sqrt(N)
locked_grid = grid * math.sqrt(ATOMS)
# one pass over the draw gives both curves, and the histogram below reads 9
# atoms of 10,000 replicas of it: those of the 4000 the curves drew, and 6000
# replicas drawn on top
(mc_ind, se_ind), (mc_lock, se_lock), histogram_sample = dp.ensemble_pass(
    config, locked_grid[-1], histogram_replicas=10_000, histogram_atoms=9)
analytic_ind = dp.envelope_independent(grid, sigma, F0)
analytic_lock = dp.envelope_locked(locked_grid, sigma, F0, ATOMS)

worst_ind = np.max(np.abs(mc_ind - analytic_ind) / np.maximum(se_ind, 1e-15))
worst_lock = np.max(np.abs(mc_lock - analytic_lock) / np.maximum(se_lock, 1e-15))
print(f"Monte Carlo vs closed form: worst deviation {worst_ind:.2f} standard errors "
      f"(independent), {worst_lock:.2f} (locked)")

line_plot(OUT / "dephasing_independent.svg",
          [(grid, analytic_ind, "closed form"), (grid, mc_ind, "Monte Carlo")],
          title="Mean cosine, independent atoms", xlabel="t [s]", ylabel="mean cos")
line_plot(OUT / "dephasing_locked.svg",
          [(locked_grid, analytic_lock, "closed form"), (locked_grid, mc_lock, "Monte Carlo")],
          title="Mean cosine, locked ensemble", xlabel="t [s]", ylabel="mean cos")

# sqrt(N) narrowing of the frequency distribution itself
histograms = dp.bandwidth_histogram(histogram_sample())
print(f"\nN = 9 replica-mean distribution is {histograms.sigma_ratio:.2f}x narrower "
      f"than the single-atom one (expect {math.sqrt(9):.0f}x)")

# what the narrowing does to clock stability
base = dp.AllanParams(fwhm=1.0, carrier=1e9, atom_count=100,
                      cycle_time=1.0, averaging_time=100.0)
locked = dp.AllanParams(fwhm=1.0 / math.sqrt(100), carrier=1e9, atom_count=100,
                        cycle_time=1.0, averaging_time=100.0)
print(f"\nAllan deviation at 100 s averaging: {dp.allan_deviation(base):.3e}")
print(f"same clock with the bandwidth locked: {dp.allan_deviation(locked):.3e}")
print(f"\nplots written to {OUT}")
