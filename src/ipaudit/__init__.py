"""ipaudit: spectral security auditing of fiber-QKD transmitter optics.

The package answers two questions about a QKD transmitter facing
induced-photorefraction probing in the 400-800 nm range:

1. If the probe distorts the prepared states, what does the eavesdropper
   gain?  (`statemath` for phase-remapped coherent constellations and their
   unambiguous-discrimination probability, `scw` for subcarrier-wave
   modulation-index attacks and the Holevo bound.)

2. How much probe power can reach the modulator in the first place?
   (`spectra` for measured insertion-loss curves, `components` for the
   direction-resolved component library, `budget` for chained power budgets,
   loss envelopes and vulnerability verdicts.)

A command-line front end (`ipaudit`, module `ipaudit.cli`) binds the pieces
into reproducible audit runs and plot-ready CSV exports.
"""

from .statemath import (
    GramMatrix,
    StateSet,
    eigenvalues,
    gram_matrix,
    min_eigenvalue,
    ratio_curve,
    usd_asymptotic,
    usd_probability,
    usd_ratio,
)
from .scw import (
    HOLEVO_INDEX_MAX,
    ScwParams,
    bessel_j0,
    binary_entropy,
    holevo_bound,
    holevo_curve,
    holevo_gain,
    sideband_carrier_ratio,
    sideband_power,
)
from .spectra import (
    DEFAULT_FLOOR_DB,
    AggregatedSpectrum,
    LossSpectrum,
    Spectrum,
    aggregate_runs,
    canonical_grid,
    insertion_loss,
    load_loss_csv,
    load_spectrum,
    resample,
    write_loss_csv,
    write_spectrum,
)
from .components import (
    Anchor,
    Component,
    load_component,
    load_library,
    reference_library,
    write_library,
)
from .budget import (
    DAMAGE_LIMIT_DBM,
    DEFAULT_THRESHOLDS,
    AssessmentReport,
    Band,
    Chain,
    ChainEnvelope,
    IpaThreshold,
    PowerBudget,
    Slot,
    ThresholdAssessment,
    assess_ipa,
    chain_power,
    convert_power,
    envelope,
    load_chain_config,
)

__version__ = "0.1.0"
