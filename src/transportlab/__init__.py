"""transportlab: a particle-measure laboratory for steering transport
equations with velocity controls localized on a fixed region."""

__version__ = "0.1.0"

from ._kernels import active_lane  # noqa: F401
from .measure import (ParticleMeasure, DensitySpec, GridPartition,  # noqa: F401
                      sample, push_forward, quantile_partition)
from .geometry import Region, cutoff_theta  # noqa: F401
from .flow import TimeField, Trajectory, flow_push  # noqa: F401
from .ot import TransportPlan, w1_1d, wp_discrete, w1_bracket  # noqa: F401
from .synth import (GridControlField, approx_controller,  # noqa: F401
                    exact_controller, bv_blowup_diagnostic, grid_error_bound)
from .scenarios import Scenario, load_scenario, PRESETS  # noqa: F401
