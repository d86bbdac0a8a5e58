"""Every numeric input of the package reads through one number reader.

The constructors of the link budget, the sweep, the channel gain, the
topology, the flows, the PHY modes and the RS codes, the simulator's run
settings and a frame's dimming all share ``owpan.params._real`` and ``_integer``, so one value is
a number to all of them or to none.  Text in any form, None, a complex
value and a list are no number, and each entry point raises its own error
class for them.
"""

import dataclasses

import numpy as np
import pytest

from owpan.capacity import CapacityCurve, SweepSpec, SweepVariable
from owpan.channels import ChannelGain
from owpan.netsim.engine import FlowSpec, SimulationError, run_simulation
from owpan.netsim.topology import Link, Node, NodeKind, Technology, Topology, TopologyError
from owpan.params import LinkBudgetParams, ParamsError
from owpan.phy.fec import RsCode
from owpan.phy.frames import encode_frame
from owpan.phy.modes import mode_by_name

NOT_NUMBERS = {
    "bytearray": bytearray(b"1"),
    "memoryview": memoryview(b"1"),
    "str_array": np.array(["0.5"]),
    "bytes_array": np.array([b"3"]),
    "list": [0.5],
    "str": "0.5",
    "None": None,
    "complex": 1 + 0j,
}

_NETWORK = Topology(
    nodes=(Node(1, NodeKind.RELAY), Node(2, NodeKind.RELAY)),
    links=(Link(1, 2, Technology.RF),),
)


def _params(name, v):
    # a sequence field is given the value as its one element
    many = isinstance(getattr(LinkBudgetParams(), name), tuple)
    return LinkBudgetParams(**{name: (v,) if many else v})


def _sweep(**fields):
    return SweepSpec(**{"variable": SweepVariable.SPAN_M, "start": 0.0, "stop": 1.0, **fields})


def _curve(alpha=5.0, x=0.0, capacity=1.0):
    return CapacityCurve(SweepVariable.SPAN_M, alpha, (x,), (capacity,), LinkBudgetParams())


def _link(**fields):
    return Link(**{"src": 1, "dst": 2, "technology": Technology.RF, **fields})


def _flow(**fields):
    return FlowSpec(**{"name": "f", "src": 1, "dst": 2, "rate_bps": 1e3, **fields})


def _simulate(**settings):
    return run_simulation(_NETWORK, [_flow()], **{"duration": 1.0, "seed": 0, **settings})


def _mode(**fields):
    return dataclasses.replace(mode_by_name("phy1-ook-11k"), **fields)


# entry point -> (a call with one numeric input set to the value, a value in
# range for that input, the entry point's error class)
ENTRY_POINTS = {
    **{
        f"LinkBudgetParams.{f.name}": (
            lambda v, name=f.name: _params(name, v),
            f.default[0] if isinstance(f.default, tuple) else f.default,
            ParamsError,
        )
        for f in dataclasses.fields(LinkBudgetParams)
    },
    "SweepSpec.start": (lambda v: _sweep(start=v), 0.5, ValueError),
    "SweepSpec.stop": (lambda v: _sweep(stop=v), 2.0, ValueError),
    "SweepSpec.points": (lambda v: _sweep(points=v), 3, ValueError),
    "CapacityCurve.alpha_db_per_km": (lambda v: _curve(alpha=v), 20.0, ValueError),
    "CapacityCurve.x": (lambda v: _curve(x=v), 1.0, ValueError),
    "CapacityCurve.capacity_bps": (lambda v: _curve(capacity=v), 2.0, ValueError),
    "ChannelGain": (ChannelGain, 0.5, ValueError),
    "Node.address": (lambda v: Node(v, NodeKind.RELAY), 7, TopologyError),
    "Link.src": (lambda v: _link(src=v), 3, TopologyError),
    "Link.dst": (lambda v: _link(dst=v), 3, TopologyError),
    "Link.scenario": (lambda v: _link(scenario=v), 2, TopologyError),
    "Link.capacity_bps": (lambda v: _link(capacity_bps=v), 5e6, TopologyError),
    "Link.propagation_delay": (lambda v: _link(propagation_delay=v), 1e-3, TopologyError),
    "Link.channel_count": (lambda v: _link(channel_count=v), 2, TopologyError),
    "FlowSpec.src": (lambda v: _flow(src=v), 3, SimulationError),
    "FlowSpec.dst": (lambda v: _flow(dst=v), 3, SimulationError),
    "FlowSpec.rate_bps": (lambda v: _flow(rate_bps=v), 2e3, SimulationError),
    "FlowSpec.packet_bytes": (lambda v: _flow(packet_bytes=v), 100, SimulationError),
    "FlowSpec.start": (lambda v: _flow(start=v), 0.5, SimulationError),
    "run_simulation.duration": (lambda v: _simulate(duration=v), 0.5, SimulationError),
    "run_simulation.seed": (lambda v: _simulate(seed=v), 3, SimulationError),
    "PhyMode.clock_rate": (lambda v: _mode(clock_rate=v), 200e3, ValueError),
    "PhyMode.nominal_rate": (lambda v: _mode(nominal_rate=v), 11_666.67, ValueError),
    "PhyMode.nominal_rate_max": (lambda v: _mode(nominal_rate_max=v), 2e4, ValueError),
    "RsCode.n": (lambda v: RsCode(v, 11), 15, ValueError),
    "RsCode.k": (lambda v: RsCode(15, v), 7, ValueError),
    "encode_frame.dimming": (
        lambda v: encode_frame(b"x", mode_by_name("phy1-vppm-35k"), v), 0.25, ValueError
    ),
}

# None is a value of two inputs: a saturating flow's rate, and the upper rate
# of a mode that publishes one rate rather than a range
CASES = [
    (entry, label)
    for entry in ENTRY_POINTS
    for label in NOT_NUMBERS
    if not (label == "None" and entry in ("FlowSpec.rate_bps", "PhyMode.nominal_rate_max"))
]


@pytest.mark.parametrize("entry, label", CASES, ids=[f"{e}-{l}" for e, l in CASES])
def test_every_numeric_input_rejects_what_is_no_number(entry, label):
    call, _, error = ENTRY_POINTS[entry]
    with pytest.raises(error) as caught:
        call(NOT_NUMBERS[label])
    assert type(caught.value) is error


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_numeric_input_takes_its_value_as_a_numpy_scalar(entry):
    # the control of the test above: the call itself is sound
    call, valid, _ = ENTRY_POINTS[entry]
    call(np.asarray(valid)[()])
