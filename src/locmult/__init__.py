"""Exact multiplicity and character computations from torus fixed-point
data, with arithmetic-polynomial structure verification."""

from .errors import LocmultError
from .lattice import (
    RootSystem,
    WeightVector,
    WeylElement,
    generate_weyl_group,
    is_dominant,
    is_regular_dominant,
    pairing,
    pick_generic_direction,
    wv,
    zero_vector,
)
from .fpdata import (
    DatasetError,
    FixedPointDatum,
    LocalizationDataset,
    StratumPhaseDatum,
    load_character_file,
    load_dataset,
    load_dataset_file,
    load_root_system_file,
    load_strata_file,
    serialize_dataset,
    validate,
)
from .localize import (
    CharacterTable,
    PartitionProblem,
    character_table,
    count_partitions,
    find_certificate,
    generic_direction,
    multiplicity,
    multiplicity_series,
    polarize,
)
from .ehrhart import (
    QuasiPolynomial,
    count_dilated,
    evaluate,
    fit_quasi_polynomial,
    minimal_period,
    phase_decomposition,
)
from .weylred import (
    DecompositionResult,
    decompose_character,
    irreducible_character,
    tensor,
)
from .oracle import ProjectiveActionSpec, monomial_character, total_dimension
from .qrverify import (
    QRReport,
    onset_threshold,
    verify_structure,
)

__version__ = "0.1.0"
