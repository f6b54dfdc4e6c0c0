"""Generated flexible structures: lattices, modes, port-level reduction.

The lattice generator stands in for a finite-element model: lumped tile
masses joined by 6-dof springs, clamped toward the spacecraft attachment
point.  Default stiffness is calibrated so a 26-tile strip's first mode
lands on 0.912 Hz; the reduction produces the participation/shape data
the two-port models consume, with exact mass bookkeeping.
"""

import numpy as np

from flexasm import modal
from flexasm import multibody as mb

# every tile of the default mass and inertia, joined by the default springs
defaults = (modal.DEFAULT_TILE_MASS, modal.DEFAULT_TILE_INERTIA, modal.LatticeStiffness())
lay26 = modal.default_layout(26)
model = modal.build_lattice(lay26, *defaults)
freqs, _ = modal.clamped_free_modes(model, 4)
print("26-tile strip first modes [Hz]:", np.round(freqs / (2 * np.pi), 4))

# port-level data for a 4-tile structure, one entry per docking tile: tile 3's
lat4 = modal.build_lattice(modal.default_layout(4), *defaults)
data = modal.modal_reduce(lat4, n_modes=4, xi=modal.DEFAULT_DAMPING)[2]
print("4-tile structure:", data.n_modes, "modes at",
      np.round(data.freqs / (2 * np.pi), 2), "Hz, mass", data.mass, "kg")

# retaining every mode recovers the rigid mass matrix exactly
full = modal.modal_reduce(lat4, 24, modal.DEFAULT_DAMPING)[2]
D_P = mb.d_p_matrix(full)
print("mass completeness |L^T L - D_P|:",
      np.max(np.abs(full.L_P.T @ full.L_P - D_P)))

# residual mass of a truncated set stays positive semidefinite
print("truncated residual min eig:",
      np.linalg.eigvalsh(mb.residual_mass(data)).min())
