"""Robust image reconstruction for a simulated magnetic particle scanner.

The pipeline runs simulate -> preprocess -> reconstruct -> evaluate, either
through the robust-recon command line tool or by calling the modules
directly: model builds the forward operator and phantoms, acquisition adds
background and noise, preprocess selects reliable frequency components and
assembles the reduced real system, solvers minimize the regularized
objectives under nonnegativity, metrics scores images shift-tolerantly.
The package root exports these layer modules, plus config, artifacts,
errors and lattice (model's exact counts of a support's inside points);
each public name lives in its module's __all__ only, e.g.
robust_recon.model.VoxelGrid.
"""

from . import (acquisition, artifacts, config, errors, lattice, metrics, model, preprocess,
               solvers)

__version__ = "0.1.0"

__all__ = ["acquisition", "artifacts", "config", "errors", "lattice", "metrics",
           "model", "preprocess", "solvers"]
