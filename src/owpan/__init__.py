"""owpan: optical wireless personal-area-network link analysis and simulation.

Covers the deterministic channel models for the indoor LED hop and the
outdoor laser hop, Shannon-capacity budgets and sweeps, the PHY mode
catalog with working codecs for the clocked modes, and a discrete-event
network simulator with topology classification.
"""

from .capacity import (
    CSV_HEADER,
    CapacityCurve,
    SweepSpec,
    SweepVariable,
    cascade_capacity,
    electrical_snr,
    end_to_end_capacity,
    indoor_link_capacity,
    link_capacity,
    outdoor_link_capacity,
    sweep_capacity,
    write_curves_csv,
)
from .channels import (
    ChannelGain,
    beers_lambert_transmittance,
    diffuse_gain,
    fso_capture_fraction,
    gaussian_beam_radius,
    indoor_frequency_response,
    lambertian_order,
    los_gain,
)
from .params import LinkBudgetParams, ParamsError, load_params, parse_params

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CapacityCurve",
    "ChannelGain",
    "LinkBudgetParams",
    "ParamsError",
    "SweepSpec",
    "SweepVariable",
    "__version__",
    "beers_lambert_transmittance",
    "cascade_capacity",
    "diffuse_gain",
    "electrical_snr",
    "end_to_end_capacity",
    "fso_capture_fraction",
    "gaussian_beam_radius",
    "indoor_frequency_response",
    "indoor_link_capacity",
    "lambertian_order",
    "link_capacity",
    "load_params",
    "los_gain",
    "outdoor_link_capacity",
    "parse_params",
    "sweep_capacity",
    "write_curves_csv",
]
