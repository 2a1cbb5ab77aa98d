"""JSON codecs for the sweep engine's cache and job hashing.

Everything the engine persists — job specifications, mapper results, layer
and network evaluations — round-trips through JSON-compatible dicts so the
on-disk cache is plain text and results survive process boundaries intact.
Python's ``json`` serializes floats via ``repr``, which round-trips every
finite double exactly, so a cached evaluation is bit-identical to a freshly
computed one.

The architecture and mapping halves of the problem already have serializers
(:func:`repro.arch.spec.architecture_to_dict`,
:func:`repro.mapping.serialize.mapping_to_dict`); this module adds the
workload (:class:`~repro.workloads.layer.ConvLayer`,
:class:`~repro.workloads.network.Network`), configuration, and result
(:class:`~repro.model.results.LayerEvaluation`,
:class:`~repro.model.results.NetworkEvaluation`) counterparts plus the
canonical-JSON content hashing the cache keys on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping as TMapping, Optional

from repro.energy.scaling import ScalingScenario
from repro.model.results import (
    EnergyBreakdown,
    LayerEvaluation,
    NetworkEvaluation,
)
from repro.workloads.dataspace import DataSpace
from repro.workloads.layer import ConvLayer
from repro.workloads.network import LayerRepetition, Network

# ---------------------------------------------------------------------------
# Canonical JSON and content hashing
# ---------------------------------------------------------------------------


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, no whitespace).

    Tuples serialize as JSON arrays, so structurally equal specs produce
    identical text regardless of the container type or dict insertion
    order — the property the content hash depends on.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_hash(value: Any) -> str:
    """Stable SHA-256 hex digest of ``value``'s canonical JSON form.

    Unlike Python's built-in ``hash``, this does not vary with
    ``PYTHONHASHSEED`` and is therefore stable across processes and runs —
    a cache written by one sweep is readable by every later one.
    """
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: ScalingScenario) -> Dict[str, Any]:
    """Serialize a scaling scenario to its parameter dict."""
    return dataclasses.asdict(scenario)


def config_to_dict(config: Any) -> Dict[str, Any]:
    """Serialize a system configuration dataclass (Albireo, crossbar, ...).

    Works for any frozen dataclass whose fields are JSON scalars or nested
    dataclasses (``dataclasses.asdict`` recurses into the scenario).
    """
    if not dataclasses.is_dataclass(config):
        raise TypeError(
            f"config must be a dataclass, got {type(config).__name__}")
    return dataclasses.asdict(config)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def layer_to_dict(layer: ConvLayer) -> Dict[str, Any]:
    """Serialize a layer shape (all fields, including the name and kind)."""
    return {
        "name": layer.name,
        "n": layer.n, "m": layer.m, "c": layer.c,
        "p": layer.p, "q": layer.q, "r": layer.r, "s": layer.s,
        "stride_h": layer.stride_h, "stride_w": layer.stride_w,
        "groups": layer.groups,
        "bits_per_weight": layer.bits_per_weight,
        "bits_per_activation": layer.bits_per_activation,
        "kind": layer.kind,
    }


#: Exactly the keys :func:`layer_to_dict` writes — specs matching this
#: schema decode through the shared-instance memo below.
_LAYER_SPEC_KEYS = (
    "name", "n", "m", "c", "p", "q", "r", "s",
    "stride_h", "stride_w", "groups",
    "bits_per_weight", "bits_per_activation", "kind",
)
_LAYER_SPEC_KEY_SET = frozenset(_LAYER_SPEC_KEYS)

#: Content-keyed decode memo.  A sweep decodes the same few distinct
#: layer dicts thousands of times (every job of a grid shares one
#: network); ConvLayer is frozen, so handing back one shared instance
#: per distinct content is safe and skips re-validation.
_LAYER_MEMO: Dict[tuple, ConvLayer] = {}
_MEMO_LIMIT = 16384


def layer_from_dict(spec: TMapping[str, Any]) -> ConvLayer:
    """Rebuild a layer from its dict form."""
    if spec.keys() == _LAYER_SPEC_KEY_SET:
        try:
            key = tuple(map(spec.__getitem__, _LAYER_SPEC_KEYS))
            cached = _LAYER_MEMO.get(key)
        except TypeError:  # unhashable field value: decode directly
            return ConvLayer(**dict(spec))
        if cached is None:
            cached = ConvLayer(**dict(spec))
            if len(_LAYER_MEMO) >= _MEMO_LIMIT:
                _LAYER_MEMO.clear()
            _LAYER_MEMO[key] = cached
        return cached
    return ConvLayer(**dict(spec))


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Serialize a network: name plus ordered layer repetitions."""
    return {
        "name": network.name,
        "entries": [
            {
                "layer": layer_to_dict(entry.layer),
                "count": entry.count,
                "consumes_previous_output": entry.consumes_previous_output,
                "resident_extra_bits": entry.resident_extra_bits,
            }
            for entry in network.entries
        ],
    }


def network_from_dict(spec: TMapping[str, Any]) -> Network:
    """Rebuild a network from its dict form."""
    entries = tuple(
        LayerRepetition(
            layer=layer_from_dict(entry["layer"]),
            count=int(entry["count"]),
            consumes_previous_output=bool(
                entry.get("consumes_previous_output", True)),
            resident_extra_bits=int(entry.get("resident_extra_bits", 0)),
        )
        for entry in spec["entries"]
    )
    return Network(name=str(spec["name"]), entries=entries)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def energy_to_list(energy: EnergyBreakdown) -> list:
    """Serialize an energy breakdown as [component, dataspace, pJ] triples
    (dataspace ``None`` for per-compute costs).

    Entry order is preserved, NOT sorted: ``total_pj`` sums the entries in
    insertion order, and float addition is not associative, so reordering
    would perturb totals in the last ulp — breaking the engine's
    bit-identical in-process/pooled/cached guarantee.
    """
    return [
        [component, None if dataspace is None else dataspace.value, value]
        for (component, dataspace), value in energy.entries().items()
    ]


#: ``DataSpace(value)`` goes through the (slow) enum constructor; this
#: map resolves the same lookup in one dict probe.
_DATASPACE_BY_VALUE = {member.value: member for member in DataSpace}

#: Content-keyed memo of decoded entry dicts.  The planner's alias
#: derivation copies layer entries per name, so a big sweep decodes the
#: same energy rows once per alias; memoizing the *entries dict* (not
#: the breakdown) keeps every returned EnergyBreakdown an independent,
#: mutable object — its constructor copies the dict.
_ENERGY_MEMO: Dict[tuple, dict] = {}


def _decode_energy_rows(rows: list) -> dict:
    entries = {}
    for component, dataspace, value in rows:
        if dataspace is not None:
            member = _DATASPACE_BY_VALUE.get(dataspace)
            dataspace = member if member is not None \
                else DataSpace(dataspace)
        key = (component if type(component) is str else str(component),
               dataspace)
        # ``0.0 +`` mirrors the pre-memo accumulator exactly (a -0.0
        # value decodes to 0.0 either way).
        entries[key] = entries.get(key, 0.0) + float(value)
    return entries


def energy_from_list(rows: list) -> EnergyBreakdown:
    """Rebuild an energy breakdown from its triple list."""
    try:
        memo_key = tuple(map(tuple, rows))
        entries = _ENERGY_MEMO.get(memo_key)
    except (TypeError, ValueError):  # unhashable/malformed: decode directly
        return EnergyBreakdown(_decode_energy_rows(rows))
    if entries is None:
        entries = _decode_energy_rows(rows)
        if len(_ENERGY_MEMO) >= _MEMO_LIMIT:
            _ENERGY_MEMO.clear()
        _ENERGY_MEMO[memo_key] = entries
    return EnergyBreakdown(entries)


def layer_evaluation_to_dict(evaluation: LayerEvaluation) -> Dict[str, Any]:
    """Serialize one layer evaluation (shape, energy, performance)."""
    return {
        "layer": layer_to_dict(evaluation.layer),
        "energy": energy_to_list(evaluation.energy),
        "cycles": evaluation.cycles,
        "real_macs": evaluation.real_macs,
        "padded_macs": evaluation.padded_macs,
        "peak_parallelism": evaluation.peak_parallelism,
        "clock_ghz": evaluation.clock_ghz,
        "occupancy_bits": dict(evaluation.occupancy_bits),
        "compute_cycles": evaluation.compute_cycles,
        "bandwidth_bound_level": evaluation.bandwidth_bound_level,
    }


#: Stand-in for an absent ``occupancy_bits`` (one object, so its id is a
#: stable ``shared`` key).
_NO_OCCUPANCY: Dict[str, Any] = {}


def layer_evaluation_from_dict(
        spec: TMapping[str, Any],
        shared: Optional[Dict[int, Any]] = None) -> LayerEvaluation:
    """Rebuild a layer evaluation from its dict form.

    ``shared`` (optional) maps ``id()`` of an already decoded nested
    ``energy`` rows list or ``occupancy_bits`` dict to its decoded
    object: specs holding the *same* nested object (an alias entry and
    its representative) then share one decoded breakdown and occupancy
    map.  The caller keeps every keyed spec alive while the map is in
    use, so the ids cannot be reused.
    """
    if shared is None:
        shared = {}
    rows = spec["energy"]
    energy = shared.get(id(rows))
    if energy is None:
        energy = shared[id(rows)] = energy_from_list(rows)
    occupancy = spec.get("occupancy_bits", _NO_OCCUPANCY)
    occupancy_bits = shared.get(id(occupancy))
    if occupancy_bits is None:
        occupancy_bits = shared[id(occupancy)] = {
            str(k): float(v) for k, v in occupancy.items()}
    return LayerEvaluation(
        layer=layer_from_dict(spec["layer"]),
        energy=energy,
        cycles=int(spec["cycles"]),
        real_macs=int(spec["real_macs"]),
        padded_macs=int(spec["padded_macs"]),
        peak_parallelism=int(spec["peak_parallelism"]),
        clock_ghz=float(spec["clock_ghz"]),
        occupancy_bits=occupancy_bits,
        compute_cycles=(None if spec.get("compute_cycles") is None
                        else int(spec["compute_cycles"])),
        bandwidth_bound_level=spec.get("bandwidth_bound_level"),
    )


def network_evaluation_to_dict(
        evaluation: NetworkEvaluation) -> Dict[str, Any]:
    """Serialize a whole-network evaluation."""
    return {
        "name": evaluation.name,
        "layers": [
            [layer_evaluation_to_dict(layer_eval), count]
            for layer_eval, count in evaluation.layers
        ],
        "clock_ghz": evaluation.clock_ghz,
        "peak_parallelism": evaluation.peak_parallelism,
    }


def network_evaluation_from_dict(
        spec: TMapping[str, Any]) -> NetworkEvaluation:
    """Rebuild a network evaluation from its dict form.

    Each distinct nested ``energy`` rows list and ``occupancy_bits``
    dict is decoded once per network: layer entries that hold the same
    nested objects (the planner's alias entries share them with their
    representative) get the same decoded
    :class:`~repro.model.results.EnergyBreakdown` and occupancy map.
    """
    shared: Dict[int, Any] = {}
    layers = tuple(
        (layer_evaluation_from_dict(layer_spec, shared), int(count))
        for layer_spec, count in spec["layers"]
    )
    return NetworkEvaluation(
        name=str(spec["name"]),
        layers=layers,
        clock_ghz=float(spec["clock_ghz"]),
        peak_parallelism=int(spec["peak_parallelism"]),
    )
