"""qubolab: a desk-scale workbench for QUBO-based quantum optimization.

Models constrained integer problems (EV charging schedules, truck routing),
transforms them along the QCIO -> penalty QUIO -> QUBO -> Ising chain, and
solves them with exact statevector QAOA/VQE, simulated and Trotterized
annealing, connectivity-aware transpilation, and brute-force oracles.
"""

__version__ = "0.1.0"

from .annealer import AnnealSchedule, SaConfig, SweepRow, qa_trotter, sa_sample
from .model import (
    BinaryEncoding,
    IsingModel,
    QcioProblem,
    QuboProblem,
    QuioProblem,
    SolveReport,
    brute_force_solve,
    build_quio,
    encode_binary,
    min_penalty,
    qubo_cost,
    to_ising,
    upper_triangularize,
)
from .optimizer import MultiStartReport, OptTrace, minimize, multistart, uniform_sampler
from .quality import (
    Distribution,
    QualityReport,
    RelativeError,
    hellinger_fidelity,
    random_baseline,
    relative_error,
    solution_rates,
)
from .simulator import (
    Circuit,
    Gate,
    SampleSet,
    StateVector,
    apply_gate,
    expectation_diagonal,
    run_circuit,
    sample,
)
from .transpiler import (
    CouplingMap,
    ErrorMap,
    Layout,
    RoutedCircuit,
    circuit_score,
    count_two_qubit,
    decompose,
    route,
    unitary_of,
)
from .usecases import (
    LamaSpec,
    Route,
    Schedule,
    TrpSpec,
    build_lama,
    build_trp,
    decode_lama,
    decode_trp,
    example_series,
    gen_cities,
    ising_spin_form,
)
from .variational import (
    Landscape,
    ParametricCircuit,
    QaoaParams,
    VqeParams,
    cost_landscape,
    qaoa_circuit,
    qaoa_expectation,
    qaoa_objective,
    qaoa_state_fast,
    vqe_circuit,
    vqe_objective,
    vqe_state,
)

__all__ = [
    "__version__",
    # problem chain
    "QcioProblem",
    "QuioProblem",
    "BinaryEncoding",
    "QuboProblem",
    "IsingModel",
    "SolveReport",
    "build_quio",
    "encode_binary",
    "upper_triangularize",
    "qubo_cost",
    "to_ising",
    "brute_force_solve",
    "min_penalty",
    # use cases
    "LamaSpec",
    "Schedule",
    "TrpSpec",
    "Route",
    "build_lama",
    "decode_lama",
    "example_series",
    "gen_cities",
    "build_trp",
    "decode_trp",
    "ising_spin_form",
    # simulation
    "Gate",
    "Circuit",
    "StateVector",
    "SampleSet",
    "apply_gate",
    "run_circuit",
    "sample",
    "expectation_diagonal",
    # variational
    "QaoaParams",
    "VqeParams",
    "Landscape",
    "ParametricCircuit",
    "qaoa_circuit",
    "qaoa_state_fast",
    "qaoa_expectation",
    "cost_landscape",
    "vqe_circuit",
    "vqe_state",
    "qaoa_objective",
    "vqe_objective",
    # optimization
    "OptTrace",
    "MultiStartReport",
    "minimize",
    "multistart",
    "uniform_sampler",
    # annealing
    "AnnealSchedule",
    "SaConfig",
    "SweepRow",
    "sa_sample",
    "qa_trotter",
    # transpilation
    "CouplingMap",
    "ErrorMap",
    "Layout",
    "RoutedCircuit",
    "route",
    "decompose",
    "count_two_qubit",
    "circuit_score",
    "unitary_of",
    # quality
    "Distribution",
    "RelativeError",
    "QualityReport",
    "hellinger_fidelity",
    "relative_error",
    "random_baseline",
    "solution_rates",
]
