"""Pricing, purchasing and inventory control for a multi-material assembly plant.

The package models a plant that buys raw materials at exogenous unit costs,
posts per-product prices from finite menus, and serves the integer demand
that arrives in response, all in discrete time slots.  It provides:

* the domain model and its bookkeeping (``plantsim.model``),
* exogenous supply/demand state processes and seeded randomness
  (``plantsim.processes``),
* an online threshold controller that needs no statistics of the exogenous
  processes (``plantsim.controller``),
* optimality oracles built on a dense LP solver (``plantsim.oracles``,
  ``plantsim.simplex``),
* an episode simulator with bound checking (``plantsim.simulator``),
* a scenario file format and command line front end (``plantsim.scenario``,
  ``plantsim.cli``).
"""

__version__ = "0.1.0"
