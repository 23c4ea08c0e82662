"""transportlab: a particle-measure laboratory for steering transport
equations with velocity controls localized on a fixed region."""

__version__ = "0.1.0"

from ._kernels import active_lane  # noqa: F401
from .measure import (ParticleMeasure, DensitySpec, GridPartition,  # noqa: F401
                      sample, push_forward, restrict, combine,
                      quantile_partition, line_quantile_partition)
from .geometry import Region, cutoff_theta, weight_eta  # noqa: F401
from .flow import (TimeField, Trajectory, integrate_flow, flow_push,  # noqa: F401
                   weak_residual)
from .ot import (TransportPlan, w1_1d, wp_discrete,  # noqa: F401
                 displacement_interpolate, wasserstein_inequality_suite,
                 subsampled_w1)
from .synth import (grid_control, storage_control,  # noqa: F401
                    approx_controller, exact_controller,
                    bv_blowup_diagnostic, grid_error_bound)
from .scenarios import Scenario, load_scenario, PRESETS  # noqa: F401
