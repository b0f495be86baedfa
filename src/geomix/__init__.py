"""Boundary-driven chain steady states as mixtures of geometric product measures.

The stationary state studied here is a product of geometric distributions
whose site parameters are themselves random: they are distributed as the
order statistics of independent uniforms on the reservoir interval
[theta_left, theta_right].  The package provides

* seeded batch samplers for the parameter profiles and the occupation
  configurations, one replica per row (:mod:`geomix.core`),
* closed-form moments of uniform order statistics and of geometric
  marginals (:mod:`geomix.moments`),
* fields of local functions on configurations (:mod:`geomix.fields`),
* the deterministic objects of the limit theorems: law-of-large-numbers
  limits, central-limit variances and the bridge covariance kernel
  (:mod:`geomix.asymptotics`),
* exact local-equilibrium deviations from self-duality
  (:mod:`geomix.duality`),
* large-deviation free energies and rate functions with variational
  solvers (:mod:`geomix.ldp`),
* a Monte Carlo experiment harness (:mod:`geomix.harness`) and a batch
  CLI (:mod:`geomix.cli`).
"""

from geomix.core import (
    BoundaryParams,
    LocalFunction,
    RandomSeed,
    configuration_batch,
    profile_batch,
)

__all__ = [
    "BoundaryParams",
    "LocalFunction",
    "RandomSeed",
    "configuration_batch",
    "profile_batch",
]

__version__ = "0.1.0"
