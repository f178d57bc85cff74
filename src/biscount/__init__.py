"""Counting and sampling independent sets in regular bipartite graphs:
exact oracles, container enumeration, polymer-model cluster expansions, and
the approximate counters built from them."""

from .cluster_expansion import (
    KP_ASSUMED,
    KP_FAILED,
    KP_VERIFIED,
    KPReport,
    LogPartitionEstimate,
    TailMass,
    beta_weight,
    choose_ell,
    exact_log_xi,
    exact_xi,
    kp_hardcore,
    kp_unweighted,
    tail_mass,
    truncated_log_xi,
    truncation_bound,
    verify_kp,
)
from .containers import (
    Certificate,
    certificate_region,
    compute_certificate,
    count_via_certificates,
    distinct_nonexpanding_closed,
    enumerate_certificates,
    enumerate_essential_candidates,
    enumerate_expanding,
    enumerate_nonexpanding_closed,
    essential_size_cap,
    greedy_cover,
    is_essential_subset,
    small_generator,
    threshold_degree_set,
)
from .errors import (
    CapacityError,
    GraphFormatError,
    InvalidInputError,
    MalformedCertificateError,
)
from .expander import (
    ApproxCount,
    HardCoreParams,
    PolymerCensus,
    count_expander,
    count_hardcore_expander,
    epsilon_zero,
    exact_mu_hat,
    polymer_census,
    sample_expander,
    sample_hardcore_expander,
    sampler_tables,
    sampler_tv_bound,
)
from .general_count import (
    DEstimate,
    NonExpandingFamily,
    assemble_exact,
    count_general,
    count_general_exact,
    enumerate_families,
    estimate_D,
    exhaustive_D,
)
from .graphs import (
    BipartiteGraph,
    ExpansionParams,
    Graph,
    SideSet,
    check_alpha_expander,
    closure,
    dump_graph,
    is_expanding,
    is_small,
    is_two_linked,
    load_graph,
    neighborhood,
    two_linked_components,
)
from .instances import (
    InstanceSpec,
    complete_bipartite,
    even_cycle,
    even_torus,
    generate,
    hypercube,
    random_regular,
    random_shift,
)
from .oracle import (
    ExactCount,
    ExactSampler,
    exact_count_bipartite,
    exact_count_general,
    exact_distribution,
    exact_hardcore,
)
from .polymers import (
    Polymer,
    PolymerFamily,
    WeightModel,
    are_compatible,
    enumerate_polymers,
    log_series_coefficients,
    restrict_universe,
    xi_size_polynomial,
)

__version__ = "0.1.0"
