"""Monte Carlo simulator and phase optimizer for multi-RIS aided MISO downlinks."""

from .ao import (
    alternate_optimize,
    evaluate_pair,
    optimize_cluster2,
    optimize_eif_stack,
)
from .channels import (
    ChannelRealization,
    ChannelStatistics,
    CorrelationModel,
    build_statistics,
    draw_realization,
    dump_realization,
    path_loss_db,
    path_loss_linear,
    sample_correlated_rayleigh,
    sample_inter_ris,
    spatial_correlation,
    trial_rng,
)
from .harness import (
    CSV_HEADER,
    DEFAULT_CASES,
    EMI_SWEEP_CASES,
    TRACE_HEADER,
    MetricRecord,
    Mode,
    ScenarioCase,
    SweepSpec,
    make_powers,
    parse_scenario_token,
    render_csv,
    render_trace,
    run_single_trial,
    run_sweep,
)
from .precoding import ZfDegenerateError, effective_channel, zf_precoder
from .rcg import (
    RcgResult,
    euclid_grad,
    optimize_phases,
    rcg_lockstep,
)
from .scenario import (
    ClusterConfig,
    ConfigError,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    dbm_to_watts,
    default_config,
    distance_3d,
    load_config,
    ris_element_positions,
    save_config,
    validate_config,
)
from .sinr import (
    CascadeTerms,
    PowerAllocation,
    ScenarioKind,
    SinrReport,
    UserParts,
    UtilityStack,
    build_cascades,
    neighbor_parts,
    outage_indicator,
    parts_sinr,
    scenario_sinr,
    user_parts,
    weighted_log_utility,
)

__version__ = "0.1.0"
