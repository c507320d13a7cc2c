"""Unit tests for the feed-forward photonic circuit evaluator."""

from dataclasses import dataclass
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_technology
from repro.errors import PortConnectionError
from repro.photonics.absorber import Absorber
from repro.photonics.coupler import DirectionalCoupler, PowerSplitter
from repro.photonics.laser import CWLaser
from repro.photonics.mrr import AddDropMRR, AllPassMRR
from repro.photonics.network import PhotonicCircuit
from repro.photonics.photodiode import Photodiode
from repro.photonics.signal import WDMSignal, merge_signals
from repro.photonics.waveguide import Waveguide


def build_basic_circuit(tech):
    circuit = PhotonicCircuit()
    circuit.add("laser", CWLaser(tech.wavelength, 10e-6))
    circuit.add("splitter", PowerSplitter())
    circuit.add(
        "ring",
        AddDropMRR(
            tech.compute_ring_spec(),
            design_wavelength=tech.wavelength,
            waveguide=tech.waveguide,
            coupler=tech.coupler,
        ),
    )
    circuit.add("pd_thru", Photodiode())
    circuit.add("pd_drop", Photodiode())
    circuit.add("absorber", Absorber())
    circuit.connect("laser", "out", "splitter", "in")
    circuit.connect("splitter", "out1", "ring", "in")
    circuit.connect("splitter", "out2", "absorber", "in")
    circuit.connect("ring", "thru", "pd_thru", "in")
    circuit.connect("ring", "drop", "pd_drop", "in")
    return circuit


def test_evaluation_routes_power(tech):
    circuit = build_basic_circuit(tech)
    circuit.evaluate()
    pd_thru = circuit.component("pd_thru")
    pd_drop = circuit.component("pd_drop")
    absorber = circuit.component("absorber")
    assert absorber.last_absorbed_power == pytest.approx(5e-6)
    # Resonant ring: most of the 5 uW drops.
    assert pd_drop.last_input_power > 4e-6
    assert pd_thru.last_input_power < 0.1e-6
    total = pd_thru.last_input_power + pd_drop.last_input_power
    assert total < 5e-6  # ring loss dissipates the remainder


def test_external_sources_merge_with_wiring(tech):
    circuit = PhotonicCircuit()
    circuit.add("pd", Photodiode())
    circuit.evaluate({("pd", "in"): WDMSignal.single(tech.wavelength, 2e-6)})
    assert circuit.component("pd").last_input_power == pytest.approx(2e-6)


def test_duplicate_name_rejected():
    circuit = PhotonicCircuit()
    circuit.add("pd", Photodiode())
    with pytest.raises(PortConnectionError):
        circuit.add("pd", Photodiode())


def test_unknown_ports_rejected():
    circuit = PhotonicCircuit()
    circuit.add("a", Waveguide(0.0))
    circuit.add("b", Waveguide(0.0))
    with pytest.raises(PortConnectionError):
        circuit.connect("a", "nope", "b", "in")
    with pytest.raises(PortConnectionError):
        circuit.connect("a", "out", "b", "nope")


def test_double_drive_rejected():
    circuit = PhotonicCircuit()
    circuit.add("a", Waveguide(0.0))
    circuit.add("b", Waveguide(0.0))
    circuit.add("c", Waveguide(0.0))
    circuit.connect("a", "out", "c", "in")
    with pytest.raises(PortConnectionError):
        circuit.connect("b", "out", "c", "in")


def test_output_fanout_rejected():
    """Physical fan-out needs an explicit splitter."""
    circuit = PhotonicCircuit()
    circuit.add("a", Waveguide(0.0))
    circuit.add("b", Waveguide(0.0))
    circuit.add("c", Waveguide(0.0))
    circuit.connect("a", "out", "b", "in")
    with pytest.raises(PortConnectionError):
        circuit.connect("a", "out", "c", "in")


def test_cycle_detection():
    circuit = PhotonicCircuit()
    circuit.add("a", Waveguide(0.0))
    circuit.add("b", Waveguide(0.0))
    circuit.connect("a", "out", "b", "in")
    circuit.connect("b", "out", "a", "in")
    with pytest.raises(PortConnectionError):
        circuit.evaluate()


def test_missing_protocol_rejected():
    circuit = PhotonicCircuit()
    with pytest.raises(PortConnectionError):
        circuit.add("bad", object())


def test_unconnected_outputs_reported(tech):
    circuit = PhotonicCircuit()
    circuit.add("laser", CWLaser(tech.wavelength, 1e-3))
    assert circuit.unconnected_outputs() == [("laser", "out")]


def test_source_type_checked(tech):
    circuit = PhotonicCircuit()
    circuit.add("pd", Photodiode())
    with pytest.raises(PortConnectionError):
        circuit.evaluate({("pd", "in"): 1e-3})


# -- generated feed-forward netlists -------------------------------------------

TECH = default_technology()
RING_KW = dict(
    design_wavelength=TECH.wavelength, waveguide=TECH.waveguide, coupler=TECH.coupler
)
FEEDBACK_MESSAGE = (
    "optical feedback loop detected; this evaluator only supports "
    "feed-forward networks (the pSRAM loop closes electrically)"
)

#: The package's passive components, each a maker of fresh instances.
PARTS = st.one_of(
    st.floats(0.0, 1e-2).map(lambda length: partial(Waveguide, length)),
    st.floats(0.0, 1.0).map(lambda ratio: partial(PowerSplitter, ratio)),
    st.floats(0.0, 1.0).map(
        lambda kappa: partial(DirectionalCoupler, power_coupling=kappa)
    ),
    st.just(partial(AllPassMRR, TECH.adc_ring_spec(), **RING_KW)),
    st.just(partial(AddDropMRR, TECH.compute_ring_spec(), **RING_KW)),
    st.just(Absorber),
    st.just(Photodiode),
)

#: One to three carriers around the operating wavelength.
SIGNALS = st.lists(
    st.tuples(st.sampled_from((-0.4e-9, -0.1e-9, 0.0, 0.05e-9, 0.3e-9)), st.floats(0.0, 1e-3)),
    min_size=1,
    max_size=3,
    unique_by=lambda carrier: carrier[0],
).map(
    lambda carriers: WDMSignal(
        [TECH.wavelength + offset for offset, _ in carriers], [power for _, power in carriers]
    )
)


@dataclass
class Netlist:
    """Parts named ``p<index>``, registered and wired in the given orders;
    ``wires`` run ((part, output port), (part, input port))."""

    parts: list
    registration: list[int]
    wires: list[tuple[tuple[int, str], tuple[int, str]]]
    sources: dict[tuple[str, str], WDMSignal]

    def build(self) -> PhotonicCircuit:
        circuit = PhotonicCircuit()
        for index in self.registration:
            circuit.add(f"p{index}", self.parts[index]())
        for (src, src_port), (dst, dst_port) in self.wires:
            circuit.connect(f"p{src}", src_port, f"p{dst}", dst_port)
        return circuit

    def edges(self) -> list[tuple[str, str]]:
        return [(f"p{src}", f"p{dst}") for (src, _), (dst, _) in self.wires]


@st.composite
def netlists(draw) -> Netlist:
    """A feed-forward netlist: each input port is left open or wired from
    a still-free output port of an earlier part (so pairs of parts may
    share several wires), and some input ports also take an external
    source.  Parts are registered, and wires made, in shuffled orders."""
    parts = draw(st.lists(PARTS, min_size=1, max_size=10))
    free: list[tuple[int, str]] = []
    wires = []
    sources = {}
    for index, make in enumerate(parts):
        part = make()
        for port in part.input_ports:
            if free and draw(st.booleans()):
                wires.append((free.pop(draw(st.integers(0, len(free) - 1))), (index, port)))
            if draw(st.booleans()):
                sources[(f"p{index}", port)] = draw(SIGNALS)
        free += [(index, port) for port in part.output_ports]
    return Netlist(
        parts,
        draw(st.permutations(range(len(parts)))),
        draw(st.permutations(wires)),
        sources,
    )


def reference_order(names: list[str], edges: list[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm in waves, the order networkx's ``topological_sort``
    gave the evaluator: the components with no upstream in registration
    order, then each wave's members release their downstream components
    in first-wire order (a pair joined twice is one edge)."""
    downstream: dict[str, list[str]] = {name: [] for name in names}
    upstream_count = dict.fromkeys(names, 0)
    for src, dst in dict.fromkeys(edges):
        downstream[src].append(dst)
        upstream_count[dst] += 1
    wave = [name for name in names if upstream_count[name] == 0]
    order = []
    while wave:
        order += wave
        released = []
        for name in wave:
            for child in downstream[name]:
                upstream_count[child] -= 1
                if upstream_count[child] == 0:
                    released.append(child)
        wave = released
    return order


def reference_signals(circuit: PhotonicCircuit, netlist: Netlist) -> dict:
    """Every driven port's signal by recursion up the wires: a part emits
    once its upstream parts have, each input port merging what arrives
    in the evaluator's fixed order, the wire first, then the source."""
    driver = {
        (f"p{dst}", dst_port): (f"p{src}", src_port)
        for (src, src_port), (dst, dst_port) in netlist.wires
    }
    emitted: dict[str, dict] = {}
    signals = {}

    def outputs(name: str) -> dict:
        if name not in emitted:
            part = circuit.component(name)
            inputs = {}
            for port in part.input_ports:
                arriving = []
                if (name, port) in driver:
                    upstream, upstream_port = driver[(name, port)]
                    if upstream_port in outputs(upstream):
                        arriving.append(emitted[upstream][upstream_port])
                if (name, port) in netlist.sources:
                    arriving.append(netlist.sources[(name, port)])
                if arriving:
                    inputs[port] = signals[(name, port)] = merge_signals(arriving)
            emitted[name] = (
                part.propagate_ports(inputs) if inputs or not part.input_ports else {}
            )
            for port, signal in emitted[name].items():
                signals[(name, port)] = signal
        return emitted[name]

    for name in circuit.component_names:
        outputs(name)
    return signals


def _bits(signal: WDMSignal) -> tuple[bytes, bytes]:
    return signal.wavelengths.tobytes(), signal.powers.tobytes()


@settings(max_examples=150, deadline=None)
@given(netlist=netlists())
def test_generated_netlists_evaluate_in_a_stable_topological_order(netlist):
    circuit = netlist.build()
    order = circuit._ordered_names()
    assert sorted(order) == sorted(circuit.component_names)
    position = {name: index for index, name in enumerate(order)}
    assert all(position[src] < position[dst] for src, dst in netlist.edges())
    assert order == netlist.build()._ordered_names()
    assert order == reference_order(circuit.component_names, netlist.edges())


@settings(max_examples=150, deadline=None)
@given(netlist=netlists())
def test_generated_netlists_match_a_recursive_reference(netlist):
    signals = netlist.build().evaluate(netlist.sources)
    expected = reference_signals(netlist.build(), netlist)
    assert set(signals) == set(expected)
    assert all(_bits(signals[port]) == _bits(expected[port]) for port in signals)
    assert list(signals) == list(netlist.build().evaluate(netlist.sources))



class _Tap:
    """A 1x3 part with only the port protocol: a copy of the input on
    each output."""

    input_ports = ("in",)
    output_ports = ("out1", "out2", "out3")

    def propagate_ports(self, inputs):
        return dict.fromkeys(self.output_ports, inputs["in"])


def test_parts_joined_by_several_wires_release_in_first_wire_order():
    """Two wires from ``tap`` into ``b`` are one edge, made first, so
    ``c``, wired between them, still follows ``b``."""
    circuit = PhotonicCircuit()
    circuit.add("tap", _Tap())
    circuit.add("b", DirectionalCoupler(power_coupling=0.5))
    circuit.add("c", Waveguide(0.0))
    circuit.connect("tap", "out1", "b", "in1")
    circuit.connect("tap", "out2", "c", "in")
    circuit.connect("tap", "out3", "b", "in2")
    assert circuit._ordered_names() == ["tap", "b", "c"]

@pytest.mark.parametrize("length", [1, 2, 5])
@settings(max_examples=30, deadline=None)
@given(netlist=netlists(), data=st.data())
def test_optical_feedback_loops_are_rejected(length, netlist, data):
    """A ring of ``length`` waveguides, registered and wired among a
    feed-forward netlist's parts, fails evaluation with the loop error."""
    start = len(netlist.parts)
    loop = list(range(start, start + length))
    wires = netlist.wires + [
        ((src, "out"), (dst, "in")) for src, dst in zip(loop, loop[1:] + loop[:1])
    ]
    circuit = Netlist(
        netlist.parts + [partial(Waveguide, 1e-3)] * length,
        data.draw(st.permutations(range(start + length))),
        data.draw(st.permutations(wires)),
        netlist.sources,
    ).build()
    with pytest.raises(PortConnectionError) as excinfo:
        circuit.evaluate(netlist.sources)
    assert str(excinfo.value) == FEEDBACK_MESSAGE
