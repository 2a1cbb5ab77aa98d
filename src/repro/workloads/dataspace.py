"""Dataspaces: the three tensors a convolution touches, and their projections.

A *dataspace* is Timeloop's term for one of the tensors involved in a layer:
weights, inputs, or outputs.  Each dataspace is "projected" from the seven
loop dimensions — a loop dimension is *relevant* to a dataspace if iterating
it changes which tensor element is addressed:

* ``WEIGHTS`` <- (M, C, R, S)
* ``OUTPUTS`` <- (N, M, P, Q); the remaining dims (C, R, S) are *reduction*
  dimensions: iterating them accumulates into the same output element.
* ``INPUTS``  <- (N, C, H, W) where H and W are *derived* from (P, R) and
  (Q, S) through the sliding-window relation ``h = p*stride + r``.  Because
  of this coupling, input tile sizes are not simple products of loop bounds;
  :func:`dataspace_tile_size` implements the halo arithmetic.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, FrozenSet, Mapping, Tuple

from repro.workloads.dims import Dim


class DataSpace(str, Enum):
    """One of the three tensors of a convolutional layer."""

    WEIGHTS = "Weights"
    INPUTS = "Inputs"
    OUTPUTS = "Outputs"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    def __repr__(self) -> str:
        return f"DataSpace.{self.name}"


#: All dataspaces in canonical order.
ALL_DATASPACES: Tuple[DataSpace, ...] = (
    DataSpace.WEIGHTS,
    DataSpace.INPUTS,
    DataSpace.OUTPUTS,
)


def in_canonical_order(dataspaces: Collection[DataSpace],
                       ) -> Tuple[DataSpace, ...]:
    """``dataspaces`` in :data:`ALL_DATASPACES` order.

    Architecture nodes hold their dataspaces in frozensets, which iterate
    in string-hash order — it changes with ``PYTHONHASHSEED``.  Code
    whose output order or float accumulation order follows the iteration
    walks this instead, so results do not depend on the hash seed.
    """
    return tuple(ds for ds in ALL_DATASPACES if ds in dataspaces)

_RELEVANT = {
    DataSpace.WEIGHTS: frozenset({Dim.M, Dim.C, Dim.R, Dim.S}),
    # P/R and Q/S both project onto the input tensor's H/W axes.
    DataSpace.INPUTS: frozenset({Dim.N, Dim.C, Dim.P, Dim.Q, Dim.R, Dim.S}),
    DataSpace.OUTPUTS: frozenset({Dim.N, Dim.M, Dim.P, Dim.Q}),
}

_REDUCTION = {
    DataSpace.WEIGHTS: frozenset(),
    DataSpace.INPUTS: frozenset(),
    # Iterating C, R, or S revisits the same output element (accumulation).
    DataSpace.OUTPUTS: frozenset({Dim.C, Dim.R, Dim.S}),
}


def relevant_dims(dataspace: DataSpace) -> FrozenSet[Dim]:
    """Dimensions whose iteration addresses new elements of ``dataspace``."""
    return _RELEVANT[dataspace]


def reduction_dims(dataspace: DataSpace) -> FrozenSet[Dim]:
    """Dimensions whose iteration *accumulates* into ``dataspace``.

    Non-empty only for outputs: C, R, and S sweep partial sums into the
    same output element.
    """
    return _REDUCTION[dataspace]


def is_relevant(dataspace: DataSpace, dim: Dim) -> bool:
    """True if ``dim`` addresses distinct elements of ``dataspace``."""
    return dim in _RELEVANT[dataspace]


def dataspace_tile_size(
    dataspace: DataSpace,
    tile_bounds: Mapping[Dim, int],
    stride: Tuple[int, int] = (1, 1),
) -> int:
    """Number of distinct elements of ``dataspace`` covered by a loop tile.

    ``tile_bounds`` gives the extent of each loop dimension inside the tile
    (missing dimensions count as 1).  For weights and outputs this is a plain
    product over the relevant dimensions.  For inputs, the P/R and Q/S pairs
    project onto the same tensor axes with a sliding-window overlap, so the
    tile's height is ``(p - 1) * stride_h + r`` (the halo formula), and
    likewise for width.

    >>> dataspace_tile_size(DataSpace.WEIGHTS, {Dim.M: 2, Dim.C: 3, Dim.R: 3})
    18
    >>> dataspace_tile_size(DataSpace.INPUTS, {Dim.P: 4, Dim.R: 3})
    6
    >>> dataspace_tile_size(DataSpace.INPUTS, {Dim.P: 4, Dim.R: 3}, stride=(2, 1))
    9
    """
    get = lambda dim: int(tile_bounds.get(dim, 1))  # noqa: E731 - local alias
    if dataspace is DataSpace.WEIGHTS:
        return get(Dim.M) * get(Dim.C) * get(Dim.R) * get(Dim.S)
    if dataspace is DataSpace.OUTPUTS:
        return get(Dim.N) * get(Dim.M) * get(Dim.P) * get(Dim.Q)
    # Inputs: halo arithmetic on the coupled (P, R) and (Q, S) pairs.
    stride_h, stride_w = stride
    height = (get(Dim.P) - 1) * stride_h + get(Dim.R)
    width = (get(Dim.Q) - 1) * stride_w + get(Dim.S)
    return get(Dim.N) * get(Dim.C) * height * width
