"""Sweep builders: turn parameter grids into job lists, and job results
into Pareto frontiers.

These functions generate :class:`~repro.engine.jobs.EvaluationJob` lists
for the paper's exploration axes (the Fig. 5 reuse grid, the Fig. 4
memory-system grid, generic configuration sweeps) without evaluating
anything — the executor decides in-process/pooled/cached execution.  Each
job carries its sweep coordinates in ``tags`` so callers can reassemble
results into figure points.

Also home to the sort-based :func:`pareto_frontier` (O(n log n) for two
objectives) used by energy-vs-latency configuration sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.jobs import EvaluationJob, make_job
from repro.workloads.network import Network

# ---------------------------------------------------------------------------
# Parameter grids
# ---------------------------------------------------------------------------


def parameter_grid(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes, in deterministic row-major order.

    >>> parameter_grid(a=(1, 2), b=("x",))
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    names = list(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, values)) for values in combos]


def grid_jobs(
    network: Network,
    base_config: Any,
    grid: Sequence[Dict[str, Any]],
    use_mapper: bool = False,
    include_dram: bool = True,
    fused: bool = False,
) -> List[EvaluationJob]:
    """One job per grid point; each point's keys override config fields."""
    jobs = []
    for point in grid:
        config = replace(base_config, **point)
        label = " ".join(f"{name}={value}" for name, value in point.items())
        jobs.append(make_job(
            network, config,
            use_mapper=use_mapper, include_dram=include_dram, fused=fused,
            label=label, tags=dict(point),
        ))
    return jobs


# ---------------------------------------------------------------------------
# The paper's sweeps as job lists
# ---------------------------------------------------------------------------


def reuse_sweep_jobs(
    network: Network,
    base_config: Any,
    output_reuse_values: Sequence[int] = (3, 9, 15),
    input_reuse_values: Sequence[int] = (9, 27, 45),
    weight_lane_variants: Sequence[Tuple[str, int]] = (
        ("Original", 1), ("More Weight Reuse", 3),
    ),
    include_dram: bool = False,
    use_mapper: bool = False,
) -> List[EvaluationJob]:
    """Jobs for the Fig. 5 reuse grid (see
    :func:`repro.systems.dse.sweep_reuse_factors` for the physics).

    Raising IR multiplies the broadcast width, so cluster count scales
    down to hold the MAC budget roughly constant — the paper explores
    re-wirings of the same silicon, not larger chips.
    """
    jobs = []
    for variant_name, weight_lanes in weight_lane_variants:
        for input_reuse in input_reuse_values:
            for output_reuse in output_reuse_values:
                lane_scale = (input_reuse // base_config.star_ports) \
                    * weight_lanes
                clusters = max(1, base_config.clusters // lane_scale)
                config = replace(
                    base_config,
                    star_ports=input_reuse,
                    output_reuse=output_reuse,
                    weight_lanes=weight_lanes,
                    clusters=clusters,
                )
                jobs.append(make_job(
                    network, config,
                    use_mapper=use_mapper, include_dram=include_dram,
                    label=(f"{variant_name} OR={output_reuse} "
                           f"IR={input_reuse}"),
                    tags={
                        "variant": variant_name,
                        "output_reuse": output_reuse,
                        "input_reuse": input_reuse,
                        "weight_lanes": weight_lanes,
                    },
                ))
    return jobs


def memory_sweep_jobs(
    network: Network,
    base_config: Any,
    scenarios: Sequence[Any],
    batch_sizes: Sequence[int] = (1, 8),
    fusion_options: Sequence[bool] = (False, True),
    fused_buffer_kib: Optional[int] = None,
    use_mapper: bool = False,
) -> List[EvaluationJob]:
    """Jobs for the Fig. 4 memory-system grid.

    Fused configurations auto-size the global buffer to the largest
    resident activation footprint (power-of-two KiB, with weight-tile
    headroom) unless ``fused_buffer_kib`` overrides it; bank size is held
    constant so larger buffers pay the SRAM model's H-tree growth term,
    not quadratically longer bitlines.
    """
    jobs = []
    for scenario in scenarios:
        for fused in fusion_options:
            for batch in batch_sizes:
                batched_network = (network.with_batch(batch)
                                   if batch > 1 else network)
                config = base_config.with_scenario(scenario)
                if fused:
                    required_kib = fused_buffer_kib
                    if required_kib is None:
                        required_bits = batched_network.max_activation_bits \
                            * 1.25  # weight-tile headroom
                        required_kib = next_power_of_two_kib(required_bits)
                    buffer_kib = max(config.global_buffer_kib, required_kib)
                    bank_kib = (config.global_buffer_kib
                                // config.global_buffer_banks)
                    config = replace(
                        config,
                        global_buffer_kib=buffer_kib,
                        global_buffer_banks=max(config.global_buffer_banks,
                                                buffer_kib // bank_kib),
                    )
                jobs.append(make_job(
                    batched_network, config,
                    fused=fused, include_dram=True, use_mapper=use_mapper,
                    label=(f"{scenario.name}/"
                           f"{'fused' if fused else 'not-fused'}/N={batch}"),
                    tags={"scenario": scenario.name, "batch": batch,
                          "fused": fused},
                ))
    return jobs


def config_sweep_jobs(
    network: Network,
    configs: Sequence[Any],
    use_mapper: bool = False,
) -> List[EvaluationJob]:
    """One job per configuration (generic DSE driver)."""
    return [
        make_job(network, config, use_mapper=use_mapper,
                 label=config.describe()
                 if hasattr(config, "describe") else "",
                 tags={"index": index})
        for index, config in enumerate(configs)
    ]


def default_grid_jobs(
    network: Network,
    systems: Optional[Sequence[str]] = None,
    use_mapper: bool = False,
) -> List[EvaluationJob]:
    """One job per default-sweep grid point of each requested system.

    ``systems=None`` takes every registered system that declares a
    default sweep (the `repro sweep --system <name>` grids), producing
    the multi-system batch the scheduler benchmark and cross-system
    explorations evaluate in one :func:`~repro.engine.executor.run_jobs`
    call.  Each job is tagged with its system name and grid index.
    """
    from repro.engine.jobs import system_registry

    registry = system_registry()
    names = list(systems) if systems is not None else list(registry)
    jobs: List[EvaluationJob] = []
    for name in names:
        entry = registry[name]
        if entry.default_sweep is None:
            continue
        for index, config in enumerate(entry.default_sweep()):
            jobs.append(make_job(
                network, config, system=name, use_mapper=use_mapper,
                label=f"{name}[{index}]",
                tags={"system": name, "index": index},
            ))
    return jobs


def next_power_of_two_kib(bits: float) -> int:
    """Smallest power-of-two KiB capacity holding ``bits``.

    Uses ceiling division: a footprint just above a KiB boundary rounds
    *up*, so an auto-sized fused buffer is never smaller than the
    resident tensors it must hold.

    >>> next_power_of_two_kib(8192)
    1
    >>> next_power_of_two_kib(8193)
    2
    >>> next_power_of_two_kib(3 * 8192)
    4
    """
    kib = max(1, math.ceil(bits / 8192))
    power = 1
    while power < kib:
        power *= 2
    return power


# ---------------------------------------------------------------------------
# Pareto frontier
# ---------------------------------------------------------------------------


def pareto_frontier(points: Iterable[Any],
                    objectives: Callable[[Any], Sequence[float]]) -> List[Any]:
    """Return the Pareto-optimal subset of ``points``, in input order.

    ``objectives`` maps each point to a tuple of costs (all minimized).
    A point survives if no other point is at least as good on every
    objective and strictly better on one; duplicate cost tuples on the
    frontier all survive (neither dominates the other).

    Two objectives run in O(n log n) via a sort-and-sweep; more
    objectives fall back to a lexicographically pruned pairwise check.

    >>> pareto_frontier([(1, 5), (2, 2), (3, 3)], lambda p: p)
    [(1, 5), (2, 2)]
    """
    points = list(points)
    costs = [tuple(objectives(point)) for point in points]
    if not points:
        return []
    width = len(costs[0])
    if any(len(cost) != width for cost in costs):
        raise ValueError("objectives must return a fixed-length tuple")
    if width == 2:
        keep = _pareto_indices_2d(costs)
    else:
        keep = _pareto_indices_general(costs)
    return [points[index] for index in sorted(keep)]


def _pareto_indices_2d(costs: List[Tuple[float, ...]]) -> List[int]:
    """Sort by (x, y), sweep keeping strictly improving y.

    Within an x-group only the minimal-y points can survive (a same-x,
    smaller-y point dominates); across groups a point survives iff its y
    strictly beats every smaller-x point's best y.  Equal (x, y)
    duplicates of a surviving point all survive.
    """
    order = sorted(range(len(costs)), key=lambda index: costs[index])
    keep: List[int] = []
    best_y = math.inf
    group_start = 0
    while group_start < len(order):
        group_end = group_start
        x = costs[order[group_start]][0]
        while group_end < len(order) and costs[order[group_end]][0] == x:
            group_end += 1
        group = order[group_start:group_end]
        min_y = costs[group[0]][1]  # y-sorted within the group
        if min_y < best_y:
            keep.extend(index for index in group
                        if costs[index][1] == min_y)
            best_y = min_y
        group_start = group_end
    return keep


def _pareto_indices_general(costs: List[Tuple[float, ...]]) -> List[int]:
    """Pairwise check, pruned: a dominator always sorts lexicographically
    no later than its victim, so each point only scans its lex-prefix."""
    order = sorted(range(len(costs)), key=lambda index: costs[index])
    keep: List[int] = []
    frontier_costs: List[Tuple[float, ...]] = []
    for index in order:
        cost = costs[index]
        dominated = False
        for other in frontier_costs:
            if other == cost:
                continue  # equal tuples never dominate
            if all(o <= c for o, c in zip(other, cost)):
                dominated = True
                break
        if not dominated:
            keep.append(index)
            frontier_costs.append(cost)
    return keep
