"""Frequency-pattern design and validation toolkit for multi-frequency
interferometric (MFI) phase ranging.

The package designs measurement-frequency patterns, predicts their
unambiguous range / error / outlier behavior in closed form, estimates
range from wrapped phase vectors with an LS grid search, and validates
the predictions with seeded Monte Carlo campaigns and replay of recorded
phase files.
"""

from .core import (
    C_EXACT,
    C_PAPER,
    FrequencyPlan,
    NoiseModel,
    PhaseVector,
    sigma_theta_from_snr_db,
    snr_db_from_sigma_theta,
    spacing_gcd,
    synth_phases,
    wrap_phase,
)
from .design import (
    DesignInfeasible,
    DesignParams,
    design_constrained_optimal,
    design_prime_max_error,
    design_prime_min_error,
    design_random,
    design_rips,
    design_towers,
    first_primes,
    permute_max_error,
    permute_min_error,
    prime_window_select,
    sieve_primes,
    towers_ideal_frequencies,
)
from .analysis import (
    ambiguity_fn,
    analyze,
    confusion_bound,
    confusion_bound_for_plan,
    coprime_check,
    crb,
    grid_offset,
    hmse,
    log_pdf_multi,
    log_pdf_multi_via_pairs,
    mmse,
    pdf_pair,
    pdf_single,
    practical_umr,
    quadform,
    sidelobe_scan,
    umr,
)
from .estimator import (
    EstimatorConfig,
    batch_slice,
    ls_cost,
    ls_estimate,
    ls_estimate_batch,
    unwrap_ok,
)
from .montecarlo import (
    CampaignSpec,
    CampaignValidationError,
    campaign_errors,
    synth_trial_matrix,
    trial_stream,
)
from .records import Experiment, RecordFormatError, read_record, write_record

__version__ = "0.1.0"
