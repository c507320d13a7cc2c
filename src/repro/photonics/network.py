"""Feed-forward photonic circuit evaluation.

Components are registered by name and wired port-to-port; evaluation
pushes per-wavelength powers through the directed graph in topological
order.  The architecture reproduced here contains no optical feedback
(the pSRAM's loop closes through the *electrical* storage nodes), so a
cycle in the optical graph is a construction error.

A component only needs three attributes to participate:

* ``input_ports``  — tuple of input port names,
* ``output_ports`` — tuple of output port names,
* ``propagate_ports(inputs: dict[str, WDMSignal]) -> dict[str, WDMSignal]``.

Every photonic device in :mod:`repro.photonics` implements this.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Any

from ..errors import PortConnectionError
from .signal import WDMSignal, merge_signals

PortRef = tuple[str, str]


class PhotonicCircuit:
    """A named netlist of photonic components with port wiring."""

    def __init__(self) -> None:
        self._components: dict[str, Any] = {}
        #: (dst_comp, dst_port) -> (src_comp, src_port)
        self._wires_to: dict[PortRef, PortRef] = {}
        #: (src_comp, src_port) -> (dst_comp, dst_port)
        self._wires_from: dict[PortRef, PortRef] = {}

    # -- construction --------------------------------------------------------
    def add(self, name: str, component: Any) -> Any:
        """Register ``component`` under ``name``; returns the component."""
        if name in self._components:
            raise PortConnectionError(f"component name {name!r} already used")
        for attr in ("input_ports", "output_ports", "propagate_ports"):
            if not hasattr(component, attr):
                raise PortConnectionError(
                    f"component {name!r} lacks the port protocol attribute {attr!r}"
                )
        self._components[name] = component
        return component

    def component(self, name: str) -> Any:
        """Look up a registered component."""
        if name not in self._components:
            raise PortConnectionError(f"unknown component {name!r}")
        return self._components[name]

    def connect(self, src: str, src_port: str, dst: str, dst_port: str) -> None:
        """Wire ``src.src_port`` into ``dst.dst_port`` (one-to-one)."""
        source = self.component(src)
        destination = self.component(dst)
        if src_port not in source.output_ports:
            raise PortConnectionError(f"{src!r} has no output port {src_port!r}")
        if dst_port not in destination.input_ports:
            raise PortConnectionError(f"{dst!r} has no input port {dst_port!r}")
        if (dst, dst_port) in self._wires_to:
            raise PortConnectionError(f"input port {dst}.{dst_port} already driven")
        if (src, src_port) in self._wires_from:
            raise PortConnectionError(
                f"output port {src}.{src_port} already connected; use a splitter to fan out"
            )
        self._wires_to[(dst, dst_port)] = (src, src_port)
        self._wires_from[(src, src_port)] = (dst, dst_port)

    # -- evaluation ------------------------------------------------------------
    def _ordered_names(self) -> list[str]:
        # Kahn's algorithm in waves: the components with no upstream
        # wiring in registration order, then each wave's members release
        # their downstream components in first-wire order.  Components
        # joined by several wires share one edge, as in a directed graph.
        sorter: TopologicalSorter[str] = TopologicalSorter()
        for name in self._components:
            sorter.add(name)
        for dst, src in dict.fromkeys(
            (dst, src) for (dst, _), (src, _) in self._wires_to.items()
        ):
            sorter.add(dst, src)
        try:
            return list(sorter.static_order())
        except CycleError as exc:
            raise PortConnectionError(
                "optical feedback loop detected; this evaluator only supports "
                "feed-forward networks (the pSRAM loop closes electrically)"
            ) from exc

    def evaluate(
        self, sources: dict[PortRef, WDMSignal] | None = None
    ) -> dict[PortRef, WDMSignal]:
        """Propagate light through the circuit.

        ``sources`` injects external signals into input ports, keyed by
        ``(component, port)``.  Internal sources (lasers/combs) need no
        entry.  Returns the signal at every driven port, keyed the same
        way — output ports hold what the component emitted, input ports
        what arrived.
        """
        sources = dict(sources) if sources else {}
        for (name, port), signal in sources.items():
            component = self.component(name)
            if port not in component.input_ports:
                raise PortConnectionError(f"{name!r} has no input port {port!r} to drive")
            if not isinstance(signal, WDMSignal):
                raise PortConnectionError("sources must be WDMSignal instances")

        port_signals: dict[PortRef, WDMSignal] = {}
        for name in self._ordered_names():
            component = self._components[name]
            inputs: dict[str, WDMSignal] = {}
            for port in component.input_ports:
                arriving = []
                if (name, port) in self._wires_to:
                    upstream = self._wires_to[(name, port)]
                    if upstream in port_signals:
                        arriving.append(port_signals[upstream])
                if (name, port) in sources:
                    arriving.append(sources[(name, port)])
                if arriving:
                    signal = merge_signals(arriving)
                    inputs[port] = signal
                    port_signals[(name, port)] = signal
            if not inputs and component.input_ports:
                # A pure sink/pass-through with nothing arriving emits nothing.
                continue
            outputs = component.propagate_ports(inputs)
            for port, signal in outputs.items():
                port_signals[(name, port)] = signal
        return port_signals

    # -- introspection -----------------------------------------------------------
    @property
    def component_names(self) -> list[str]:
        return list(self._components)

    def unconnected_outputs(self) -> list[PortRef]:
        """Output ports not wired anywhere (should end in absorbers/PDs)."""
        dangling = []
        for name, component in self._components.items():
            for port in component.output_ports:
                if (name, port) not in self._wires_from:
                    dangling.append((name, port))
        return dangling
