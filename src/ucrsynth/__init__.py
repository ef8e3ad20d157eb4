"""Exact state-to-state circuit synthesis from uniformly controlled rotations.

Compiles an elementary circuit (CNOTs plus one-qubit y/z-plane rotations)
that maps any n-qubit state onto any other, with closed-form angles and a
reported global phase. Ships a dense statevector simulator for
verification and a CLI (``ucrsynth``) wrapping the pipeline.
"""

from .angles import AngleSchedule, angle_schedule
from .circuit import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    Cnot,
    Gate,
    Rot,
    UcrGate,
    dagger,
    gate_counts,
    lower_ucr,
    rot_matrix,
    simplify,
    ucr_matrix,
)
from .errors import DimensionError, ExportError, ParseError, UcrsynthError
from .formats import dump_circuit, dump_state, export_qasm, load_circuit, load_state
from .gray import (
    alpha_to_theta,
    alpha_to_theta_dense,
    gray,
    gray_permutation,
    sign_matrix,
    theta_to_alpha,
)
from .sim import apply_circuit, apply_gate, apply_ucr, circuit_unitary
from .state import (
    StateVector,
    basis_state,
    fidelity,
    make_state,
    phases,
    random_state,
    wrap_angle,
)
from .synth import (
    BoundReport,
    SynthesisResult,
    bounds,
    disentangle,
    prepare,
    prepare_from_basis,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_Y",
    "AXIS_Z",
    "AngleSchedule",
    "Axis",
    "BoundReport",
    "Circuit",
    "Cnot",
    "DimensionError",
    "ExportError",
    "Gate",
    "ParseError",
    "Rot",
    "StateVector",
    "SynthesisResult",
    "UcrGate",
    "UcrsynthError",
    "alpha_to_theta",
    "alpha_to_theta_dense",
    "angle_schedule",
    "apply_circuit",
    "apply_gate",
    "apply_ucr",
    "basis_state",
    "bounds",
    "circuit_unitary",
    "dagger",
    "disentangle",
    "dump_circuit",
    "dump_state",
    "export_qasm",
    "fidelity",
    "gate_counts",
    "gray",
    "gray_permutation",
    "load_circuit",
    "load_state",
    "lower_ucr",
    "make_state",
    "phases",
    "prepare",
    "prepare_from_basis",
    "random_state",
    "rot_matrix",
    "sign_matrix",
    "simplify",
    "theta_to_alpha",
    "ucr_matrix",
    "wrap_angle",
]
