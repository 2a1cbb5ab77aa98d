"""Result containers: energy breakdowns and layer/network evaluations."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import (Any, Dict, List, Mapping as TMapping, Optional, Sequence,
                    Tuple)

from repro.model.buckets import BucketScheme
from repro.units import format_count, format_energy
from repro.workloads.dataspace import DataSpace
from repro.workloads.layer import ConvLayer

#: Key of one energy entry: (component instance name, dataspace or None).
EnergyKey = Tuple[str, Optional[DataSpace]]


class EnergyBreakdown:
    """Energy (pJ) attributed to (component, dataspace) pairs.

    Dataspace is ``None`` for per-compute costs (laser, MAC logic) that
    belong to no single tensor.  Breakdowns support addition and scaling so
    whole-network totals compose from per-layer results.
    """

    def __init__(self, entries: Optional[TMapping[EnergyKey, float]] = None):
        self._entries: Dict[EnergyKey, float] = dict(entries or {})

    # ------------------------------------------------------------------
    # Construction and composition
    # ------------------------------------------------------------------
    def add(self, component: str, dataspace: Optional[DataSpace],
            energy_pj: float) -> None:
        if energy_pj < 0:
            raise ValueError(
                f"negative energy for {component!r}/{dataspace}: {energy_pj}"
            )
        key = (component, dataspace)
        self._entries[key] = self._entries.get(key, 0.0) + energy_pj

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged = dict(self._entries)
        for key, value in other._entries.items():
            merged[key] = merged.get(key, 0.0) + value
        return EnergyBreakdown(merged)

    def scaled(self, factor: float) -> "EnergyBreakdown":
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return EnergyBreakdown(
            {key: value * factor for key, value in self._entries.items()}
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_pj(self) -> float:
        return sum(self._entries.values())

    def entries(self) -> Dict[EnergyKey, float]:
        return dict(self._entries)

    def component_total(self, component: str) -> float:
        return sum(value for (name, _), value in self._entries.items()
                   if name == component)

    def dataspace_total(self, dataspace: Optional[DataSpace]) -> float:
        return sum(value for (_, ds), value in self._entries.items()
                   if ds == dataspace)

    def grouped(self, scheme: BucketScheme) -> Dict[str, float]:
        """Sum entries into the scheme's buckets, in display order."""
        buckets: Dict[str, float] = {}
        for (component, dataspace), value in self._entries.items():
            bucket = scheme.bucket_of(component, dataspace)
            buckets[bucket] = buckets.get(bucket, 0.0) + value
        return dict(sorted(buckets.items(),
                           key=lambda item: scheme.sort_key(item[0])))

    def per_mac(self, macs: int) -> "EnergyBreakdown":
        if macs <= 0:
            raise ValueError(f"macs must be positive, got {macs}")
        return self.scaled(1.0 / macs)

    def top_contributors(self, count: int = 5) -> List[Tuple[EnergyKey, float]]:
        ranked = sorted(self._entries.items(), key=lambda item: -item[1])
        return ranked[:count]

    def describe(self, scheme: Optional[BucketScheme] = None) -> str:
        """Aligned table of the breakdown (bucketed if a scheme is given)."""
        lines = []
        total = self.total_pj
        if scheme is not None:
            rows = self.grouped(scheme).items()
            for bucket, value in rows:
                share = value / total if total else 0.0
                lines.append(f"{bucket:28s} {format_energy(value):>12s} "
                             f"{share:6.1%}")
        else:
            for (component, dataspace), value in sorted(
                    self._entries.items(), key=lambda item: -item[1]):
                label = component if dataspace is None \
                    else f"{component} [{dataspace.value}]"
                share = value / total if total else 0.0
                lines.append(f"{label:28s} {format_energy(value):>12s} "
                             f"{share:6.1%}")
        lines.append(f"{'TOTAL':28s} {format_energy(total):>12s}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LayerEvaluation:
    """Energy/performance of one layer under one mapping."""

    layer: ConvLayer
    energy: EnergyBreakdown
    #: Total cycles including memory-bandwidth stalls.
    cycles: int
    real_macs: int
    padded_macs: int
    peak_parallelism: int
    clock_ghz: float
    #: Per-storage occupancy (bits per instance), for capacity diagnostics.
    occupancy_bits: TMapping[str, float] = field(default_factory=dict)
    #: Cycles the compute alone needs (== cycles when compute-bound).
    compute_cycles: Optional[int] = None
    #: Storage level limiting throughput, or None when compute-bound.
    bandwidth_bound_level: Optional[str] = None

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    @property
    def energy_per_mac_pj(self) -> float:
        return self.energy.total_pj / self.real_macs

    @property
    def macs_per_cycle(self) -> float:
        return self.real_macs / self.cycles

    @property
    def utilization(self) -> float:
        """Fraction of peak compute throughput actually achieved."""
        return self.real_macs / (self.cycles * self.peak_parallelism)

    @property
    def latency_ns(self) -> float:
        return self.cycles / self.clock_ghz

    def describe(self) -> str:
        return (
            f"{self.layer.name}: {format_count(self.real_macs)} MACs, "
            f"{format_count(self.cycles)} cycles "
            f"({self.macs_per_cycle:.0f} MACs/cycle, "
            f"util {self.utilization:.1%}), "
            f"{self.energy_per_mac_pj:.3f} pJ/MAC"
        )


@dataclass(frozen=True)
class NetworkEvaluation:
    """Aggregate of per-layer evaluations over a whole network.

    Nothing is cached on the (frozen) instance: every aggregate is
    recomputed on access.  :meth:`totals` is the one walk over the
    layers that yields energy, MACs and cycles together, so a caller
    needing several metrics (``Record.from_evaluation``) pays for it
    once.  ``total_energy`` is bit-identical to folding
    ``total + energy.scaled(count)`` over the layers, key order included.
    """

    name: str
    layers: Tuple[Tuple[LayerEvaluation, int], ...]
    clock_ghz: float
    peak_parallelism: int

    def totals(self) -> Tuple[EnergyBreakdown, int, int]:
        """``(total energy, total MACs, total cycles)`` in one walk.

        Each key's total is the left-to-right sum, from ``0.0``, of its
        ``value * count`` terms in layer order — exactly the arithmetic
        of folding ``total + energy.scaled(count)`` — and keys keep
        first-appearance order.  A layer without the key contributes
        ``0.0``: a sum that starts at ``+0.0`` never becomes ``-0.0``,
        so adding ``0.0`` leaves it unchanged.  The terms of each
        distinct ``(breakdown, count)`` pair are computed once (decoded
        networks share one breakdown per distinct layer result) and each
        key's column is summed by ``functools.reduce``.
        """
        layers = self.layers
        tokens = [(evaluation.energy, count) for evaluation, count in layers]
        terms: Dict[Tuple[EnergyBreakdown, int], Any] = dict.fromkeys(tokens)
        keys: Dict[EnergyKey, float] = {}
        for energy, count in terms:
            if count < 0:
                raise ValueError(f"scale factor must be >= 0, got {count}")
            keys.update(energy._entries)
        for token in terms:
            energy, count = token
            get = energy._entries.get
            terms[token] = [get(key, 0.0) * count for key in keys]
        columns = zip(*map(terms.__getitem__, tokens))
        return (EnergyBreakdown({key: reduce(add, column, 0.0)
                                 for key, column in zip(keys, columns)}),
                sum(evaluation.real_macs * count
                    for evaluation, count in layers),
                sum(evaluation.cycles * count
                    for evaluation, count in layers))

    @property
    def total_energy(self) -> EnergyBreakdown:
        return self.totals()[0]

    @property
    def total_cycles(self) -> int:
        return sum(evaluation.cycles * count
                   for evaluation, count in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(evaluation.real_macs * count
                   for evaluation, count in self.layers)

    @property
    def energy_pj(self) -> float:
        return self.total_energy.total_pj

    @property
    def energy_per_mac_pj(self) -> float:
        return self.energy_pj / self.total_macs

    @property
    def macs_per_cycle(self) -> float:
        return self.total_macs / self.total_cycles

    @property
    def utilization(self) -> float:
        return self.total_macs / (self.total_cycles * self.peak_parallelism)

    @property
    def latency_ns(self) -> float:
        return self.total_cycles / self.clock_ghz

    def describe(self) -> str:
        lines = [
            f"{self.name}: {format_count(self.total_macs)} MACs, "
            f"{self.macs_per_cycle:.0f} MACs/cycle, "
            f"{self.energy_per_mac_pj:.3f} pJ/MAC, "
            f"latency {self.latency_ns / 1e6:.3f} ms"
        ]
        for evaluation, count in self.layers:
            prefix = f"  x{count} " if count > 1 else "     "
            lines.append(prefix + evaluation.describe())
        return "\n".join(lines)
