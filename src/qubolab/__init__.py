"""qubolab: a desk-scale workbench for QUBO-based quantum optimization.

Models constrained integer problems (EV charging schedules, truck routing),
transforms them along the QCIO -> penalty QUIO -> QUBO -> Ising chain, and
solves them with exact statevector QAOA/VQE, simulated and Trotterized
annealing, connectivity-aware transpilation, and brute-force oracles.
Every name is imported from the module that defines it (``qubolab.model``,
``qubolab.cli``, ...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
