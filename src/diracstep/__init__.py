"""1+1D Dirac step-potential scattering and wave-packet dynamics.

Natural units (hbar = c = 1) everywhere.  Four areas:

- algebra: Dirac matrices {alpha_1..alpha_n, beta} in n+1 dimensions,
  exact minimal construction plus a certificate-style verifier.
- scattering: closed-form step scattering for all three couplings
  (vector, scalar, pseudoscalar), amplitudes, flux coefficients,
  Klein-zone classification.
- dynamics: norm-preserving split-step spectral evolution of spinor
  wave packets, for any of the three couplings.
- cli/svgplot: command-line front end with CSV/JSON/SVG output.
"""

from .algebra import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DiracRepresentation,
    VerificationReport,
    build_representation,
    minimal_spinor_dimension,
    representation_from_json,
    representation_to_json,
    verify_clifford,
)
from .dynamics import (
    Grid,
    ObservableRecord,
    PotentialProfile,
    WavePacketState,
    evolve,
    gaussian_packet,
    measure,
    observables_to_csv,
    snapshot_to_csv,
)
from .scattering import (
    Coupling,
    Regime,
    ScatteringQuery,
    ScatteringResult,
    SingularConfigurationError,
    SweepRow,
    SweepTable,
    amplitudes,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    transmitted_factor,
)
from .svgplot import PlotSpec, render_svg

__version__ = "0.1.0"

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DiracRepresentation",
    "VerificationReport",
    "build_representation",
    "minimal_spinor_dimension",
    "representation_from_json",
    "representation_to_json",
    "verify_clifford",
    "Coupling",
    "Regime",
    "ScatteringQuery",
    "ScatteringResult",
    "SingularConfigurationError",
    "SweepRow",
    "SweepTable",
    "amplitudes",
    "sweep",
    "sweep_to_csv",
    "sweep_to_json",
    "transmitted_factor",
    "Grid",
    "ObservableRecord",
    "PotentialProfile",
    "WavePacketState",
    "evolve",
    "gaussian_packet",
    "measure",
    "observables_to_csv",
    "snapshot_to_csv",
    "PlotSpec",
    "render_svg",
    "__version__",
]
