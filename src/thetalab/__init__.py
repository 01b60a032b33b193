"""thetalab: numerical laboratory for generalised multiple intersection
functionals of multidimensional Brownian motion.

Layers, from the bottom up: heat kernels and Hermite sequences
(:mod:`~thetalab.kernels`), chaos spectra and weighted Sobolev norms
(:mod:`~thetalab.chaos`), simplex quadrature (:mod:`~thetalab.simplexquad`),
conditioned path sampling (:mod:`~thetalab.sampler`), pairing estimators
(:mod:`~thetalab.estimators`), the energy/rate machinery
(:mod:`~thetalab.variational`) and the experiment CLI
(:mod:`~thetalab.cli`).
"""

__version__ = "0.1.0"

from .chaos import (ChaosSpectrum, IncrementSpec, SobolevIndex,
                    delta_increment_norm_sq, delta_increment_spectrum,
                    sobolev_norm_sq, wick_convolve)
from .errors import (CapacityError, ContractError, DomainError,
                     InfeasibleError)
from .kernels import heat_kernel, hermite_eval, log_heat_kernel
from .sampler import PathGrid, TimeGrid, sample_bm, sample_conditioned_bm
from .simplexquad import mass_m, mass_m_direct
from .variational import closed_form_inf, minimize_energy, path_energy

__all__ = [
    "__version__",
    "ChaosSpectrum", "IncrementSpec", "SobolevIndex",
    "delta_increment_norm_sq", "delta_increment_spectrum",
    "sobolev_norm_sq", "wick_convolve",
    "CapacityError", "ContractError", "DomainError", "InfeasibleError",
    "heat_kernel", "hermite_eval", "log_heat_kernel",
    "PathGrid", "TimeGrid", "sample_bm", "sample_conditioned_bm",
    "mass_m", "mass_m_direct",
    "closed_form_inf", "minimize_energy", "path_energy",
]
