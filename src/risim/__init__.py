"""Monte Carlo simulator and phase optimizer for multi-RIS aided MISO downlinks."""

from .ao import (
    Cluster2State,
    alternate_optimize,
    evaluate_pair,
    fixed_cluster2,
    optimize_cluster2,
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
    sample_emi,
    sample_inter_ris,
    spatial_correlation,
    trial_rng,
)
from .harness import (
    CSV_HEADER,
    DEFAULT_CASES,
    EMI_SWEEP_CASES,
    TRACE_HEADER,
    GridPoint,
    MetricRecord,
    Mode,
    ScenarioCase,
    SweepSpec,
    TrialEvaluator,
    aggregate,
    make_powers,
    parse_scenario_token,
    render_csv,
    render_trace,
    run_single_trial,
    run_sweep,
    write_trace,
)
from .precoding import ZfDegenerateError, effective_channel, zf_precoder
from .rcg import (
    RcgOptions,
    RcgResult,
    armijo_search,
    euclid_grad,
    optimize_phases,
    phase_objective,
    polak_ribiere,
    project_tangent,
    rcg_optimize,
    retract,
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
    build_cascades,
    neighbor_parts,
    outage_indicator,
    parts_sinr,
    scenario_sinr,
    user_parts,
    weighted_log_utility,
)

__version__ = "0.1.0"
