"""The package namespace and the identity semantics of the result records."""

import copy

import numpy as np

import mseregion
from mseregion import (
    ChannelSet,
    CounterexampleReport,
    MseTuple,
    PowerAllocation,
    SystemConfig,
    WeightVector,
    boundary,
    boundary_sweep,
    convexity_certificate,
    convexity_certificates,
    coupling_bundle,
    io,
    kkt,
    minimize_weighted_sum_mse,
    model,
    projected_gradient,
    region,
    sample_region,
    segment_test,
    simplex,
)
from mseregion.kkt import CheckResult

MODULES = (model, simplex, kkt, region, boundary, io)

# every name the package exported before it took its list from the modules
EARLIER_EXPORTS = (
    "__version__", "BoundaryClass", "BoundarySample", "ChannelSet",
    "ConvexityReport", "CounterexampleReport", "CouplingBundle",
    "KktCertificate", "KktResiduals", "MembershipVerdict", "MseTuple",
    "PowerAllocation", "RegionSampleSet", "SegmentReport", "SystemConfig",
    "WeightVector", "affine_boundary", "boundary_sweep",
    "budget_simplex_lattice", "closed_form_ratios", "colinearity_classify",
    "convexity_certificate", "convexity_certificates",
    "convexity_discriminant", "counterexample_suite", "coupling_bundle",
    "dominated_membership", "embed_inactive_users", "ensure_feasible",
    "enumerate_stationary_points", "g_derivatives", "kkt_residuals",
    "lattice_size", "load_channels", "manifest", "minimize_weighted_sum_mse",
    "mse_first_derivatives", "mse_jacobian", "mse_pair_at_power",
    "mse_second_derivatives", "mse_tuple", "mse_tuples", "parse_channel_dict",
    "project_onto_budget_simplex", "projected_gradient", "rate_from_mse",
    "read_region_csv", "receive_covariance", "recover_multipliers",
    "resolvent_grams", "sample_budget_simplex", "sample_region",
    "save_channels", "segment_test", "sinr_from_mse",
    "weighted_mse_derivatives", "weighted_mse_gradient", "weighted_sum_mse",
    "write_boundary_csv", "write_json", "write_region_csv",
)


def test_package_exports_every_module_name_once():
    names = mseregion.__all__
    assert len(names) == len(set(names))
    union = {"__version__"}
    for mod in MODULES:
        union.update(mod.__all__)
        for name in mod.__all__:
            assert getattr(mseregion, name) is getattr(mod, name), (mod.__name__, name)
    assert set(names) == union
    assert set(EARLIER_EXPORTS) <= set(names)
    namespace = {}
    exec("from mseregion import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


REF_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
CONFIG = SystemConfig(noise_variance=1.0, power_budget=10.0)


def _array_records():
    """One instance of every record type that holds an array."""
    chan = ChannelSet(REF_H)
    cert = minimize_weighted_sum_mse(chan, CONFIG, [0.22, 0.54, 0.24], [3.0, 3.0, 3.0])

    def quad(points):
        diff = points - 0.5

        def derive(index):
            return 2.0 * diff[index], np.broadcast_to(2.0 * np.eye(2), (len(index), 2, 2))
        return (diff ** 2).sum(axis=1), derive

    batch = projected_gradient(quad, np.zeros((1, 2)), budget=2.0)
    seg = segment_test(chan, CONFIG, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], steps=1)
    return [
        chan,
        PowerAllocation([1.0, 2.0, 3.0]),
        MseTuple([0.5, 0.5, 0.5]),
        WeightVector([0.22, 0.54, 0.24]),
        cert.residuals,
        cert,
        CounterexampleReport(clusters=[cert], checks=[], segment=seg, all_passed=True),
        batch.results[0],
        batch,
        seg.endpoint_a,
        seg.points[0],
        seg,
        sample_region(chan, CONFIG, 2),
        convexity_certificates(REF_H[None, :, :2], CONFIG),
    ]


def test_array_records_compare_and_hash_by_identity():
    records = _array_records()
    assert sorted(type(r).__name__ for r in records) == sorted([
        "ChannelSet", "PowerAllocation", "MseTuple", "WeightVector",
        "KktResiduals", "KktCertificate", "CounterexampleReport",
        "PgdResult", "PgdBatch", "MembershipVerdict", "SegmentPoint",
        "SegmentReport", "RegionSampleSet", "ConvexityScan",
    ])
    for record in records:
        twin = copy.copy(record)
        assert record == record
        assert record != twin
        assert hash(record) == hash(record)
        assert record in {record}
        assert twin not in {record}


def test_scalar_records_keep_value_equality():
    h1, h2 = [1.0 + 0j, 0.0], [0.0, 1.0 + 0j]
    records = [
        CONFIG,
        convexity_certificate(h1, h2, CONFIG),
        boundary_sweep(h1, h2, CONFIG, samples=5)[2],
        coupling_bundle(h1, h2, CONFIG, 4.0),
        CheckResult("objective", 0.36, 0.36, 1e-4, True),
    ]
    for record in records:
        twin = copy.deepcopy(record)
        assert record == twin
        assert hash(record) == hash(twin)
        assert twin in {record}

