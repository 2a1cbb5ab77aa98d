"""Network totals and record metrics against the per-layer fold.

``NetworkEvaluation.totals`` sums every layer's energy in one walk; the
oracle here is the plain fold ``total + energy.scaled(count)`` over the
layers.  Totals must match it in every float *and* in key
order, and every record metric must equal (``==``, not approx) the
value derived from the fold.  A deterministic count guards the cost:
building one record walks the layers once and builds one breakdown.
"""

import pytest

from repro.api import Study
from repro.api.results import METRIC_NAMES, Record
from repro.engine import run_job
from repro.engine.jobs import make_job
from repro.model.results import (
    EnergyBreakdown,
    LayerEvaluation,
    NetworkEvaluation,
)
from repro.systems import AlbireoConfig
from repro.workloads import ConvLayer
from repro.workloads.dataspace import DataSpace
from repro.workloads.network import LayerRepetition, Network

NETWORKS = ("tiny", "lenet5", "resnet18", "vgg16")


def _fold(evaluation):
    total = EnergyBreakdown()
    for layer_eval, count in evaluation.layers:
        total = total + layer_eval.energy.scaled(count)
    return total


def _fold_metrics(evaluation):
    energy_pj = _fold(evaluation).total_pj
    macs = sum(layer.real_macs * count for layer, count in evaluation.layers)
    cycles = sum(layer.cycles * count for layer, count in evaluation.layers)
    return {
        "energy_per_mac_pj": energy_pj / macs,
        "energy_pj": energy_pj,
        "latency_ns": cycles / evaluation.clock_ghz,
        "macs_per_cycle": macs / cycles,
        "utilization": macs / (cycles * evaluation.peak_parallelism),
        "total_macs": macs,
        "total_cycles": cycles,
    }


def _deep_network(entries=384):
    """Two geometries alternating over ``entries`` uniquely named layers."""
    shapes = (dict(m=64, c=64, p=32, q=32, r=3, s=3),
              dict(m=48, c=32, p=14, q=14, r=3, s=3))
    return Network(name=f"deep{entries}", entries=tuple(
        LayerRepetition(layer=ConvLayer(name=f"conv{index:03d}",
                                        **shapes[index % 2]),
                        consumes_previous_output=index > 0)
        for index in range(entries)))


def _assert_matches_fold(evaluation):
    expected = list(_fold(evaluation).entries().items())
    assert list(evaluation.total_energy.entries().items()) == expected
    assert list(evaluation.totals()[0].entries().items()) == expected
    record = Record.from_evaluation({}, evaluation)
    assert tuple(record.metrics) == METRIC_NAMES
    oracle = _fold_metrics(evaluation)
    for name in METRIC_NAMES:
        assert record.metrics[name] == oracle[name], name
        assert getattr(evaluation, name) == oracle[name], name


@pytest.fixture(scope="module")
def study_evaluations():
    evaluations = []
    for include_dram in (True, False):
        results = (Study().systems("albireo", "crossbar", "wdm_delay")
                   .networks(*NETWORKS).batches(1, 4)
                   .options(include_dram=include_dram).run())
        assert len(results) == 3 * len(NETWORKS) * 2
        evaluations.extend(record.evaluation for record in results)
    return evaluations


def test_study_records_match_the_fold(study_evaluations):
    for evaluation in study_evaluations:
        _assert_matches_fold(evaluation)


def test_deep_two_geometry_network_matches_the_fold():
    network = _deep_network()
    decoded = Study().configs(AlbireoConfig()).networks(network).run()
    direct = run_job(make_job(network, AlbireoConfig()))
    for evaluation in (decoded[0].evaluation, direct):
        assert len(evaluation.layers) == 384
        _assert_matches_fold(evaluation)
    # Decoding shares one breakdown per distinct layer result.
    assert len({id(layer.energy)
                for layer, _ in decoded[0].evaluation.layers}) == 2


def _layer(entries, name="l"):
    energy = EnergyBreakdown()
    energy._entries = dict(entries)
    return LayerEvaluation(
        layer=ConvLayer(name=name, m=2, c=2, p=2, q=2),
        energy=energy, cycles=3, real_macs=5, padded_macs=5,
        peak_parallelism=4, clock_ghz=1.0)


def test_ragged_keys_zero_counts_and_signed_zeros_match_the_fold():
    """Layers with different key sets (a key first seen late), shared
    and unshared breakdowns, zero and repeated counts, -0.0 terms."""
    w, i = DataSpace.WEIGHTS, DataSpace.INPUTS
    first = _layer({("A", w): 0.1, ("B", None): -0.0})
    second = _layer({("C", i): 1e-17, ("A", w): 0.7, ("B", None): 0.3})
    layers = ((first, 3), (second, 1), (first, 0), (second, 7),
              (_layer({("B", None): 2.5}), 2), (first, 1),
              (_layer({("D", None): -0.0}), 5))
    evaluation = NetworkEvaluation(name="ragged", layers=layers,
                                   clock_ghz=1.0, peak_parallelism=4)
    _assert_matches_fold(evaluation)
    assert list(evaluation.total_energy.entries()) == [
        ("A", w), ("B", None), ("C", i), ("D", None)]
    empty = NetworkEvaluation(name="empty", layers=(), clock_ghz=1.0,
                              peak_parallelism=1)
    assert empty.totals()[0].entries() == {}
    assert empty.totals()[1:] == (0, 0)


def test_negative_count_still_raises():
    layer = _layer({("A", None): 1.0})
    evaluation = NetworkEvaluation(name="neg", layers=((layer, 1),
                                                       (layer, -2)),
                                   clock_ghz=1.0, peak_parallelism=4)
    with pytest.raises(ValueError, match="scale factor must be >= 0"):
        evaluation.totals()
    with pytest.raises(ValueError, match="scale factor must be >= 0"):
        Record.from_evaluation({}, evaluation)


def test_one_record_walks_the_layers_once(monkeypatch):
    """Building a record from a 384-entry evaluation runs one totals
    walk and constructs one breakdown: no per-layer scaled copies or
    merged dicts, and no second walk for a second metric."""
    evaluation = Study().configs(AlbireoConfig()) \
        .networks(_deep_network()).run()[0].evaluation
    counts = {"totals": 0, "breakdowns": 0}
    totals = NetworkEvaluation.totals
    init = EnergyBreakdown.__init__

    def counting_totals(self):
        counts["totals"] += 1
        return totals(self)

    def counting_init(self, *args, **kwargs):
        counts["breakdowns"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(NetworkEvaluation, "totals", counting_totals)
    monkeypatch.setattr(EnergyBreakdown, "__init__", counting_init)
    Record.from_evaluation({}, evaluation)
    assert counts == {"totals": 1, "breakdowns": 1}
