import numpy as np
import numpy.testing as npt
import pytest

from msignn import (ScaleModule, empirical_range, measure_decay, range_bound,
                    range_bound_exact, write_curve_csv)
from msignn.probe import DecayCurve

from conftest import chain_decay, chain_probe_setup


def test_measure_decay_gamma_zero_local_only():
    curve = chain_decay(10, gamma=0.0)
    assert curve.measured[0] > 0.0
    npt.assert_array_equal(curve.measured[1:], np.zeros(len(curve.hops) - 1))


def test_measure_decay_soundness_and_monotonicity():
    curve = chain_decay(40, gamma=0.5, scale_m=1)
    assert np.all(curve.measured <= curve.bound + 1e-12)
    assert np.all(np.diff(curve.measured) <= 1e-18)  # non-increasing on a chain
    npt.assert_array_equal(curve.hops, np.arange(40))


def test_measure_decay_larger_scale_reaches_further():
    theta = 1e-8
    ranges = {}
    for m in (1, 4):
        curve = chain_decay(120, gamma=0.5, scale_m=m)
        assert np.all(curve.measured <= curve.bound + 1e-12)
        ranges[m] = empirical_range(curve, theta)
    assert ranges[4] >= ranges[1]


def test_range_bound_reference_values():
    assert range_bound(0.5, 1e-6, 1) == 20
    assert range_bound(0.5, 1e-6, 4) == 83
    assert range_bound(0.9, 1e-6, 1) == 152
    assert range_bound_exact(0.5, 1e-6, 1) == pytest.approx(20.93, abs=0.01)


def test_range_bound_scales_linearly_in_m():
    x1 = range_bound_exact(0.5, 1e-8, 1)
    x4 = range_bound_exact(0.5, 1e-8, 4)
    assert x4 / x1 == 4.0  # exact: power-of-two multiple


def test_empirical_range_cases():
    hops = np.arange(20)
    flat = DecayCurve(hops=hops, measured=np.full(20, 1e-3),
                      bound=np.ones(20), gamma=0.5, scale_m=1)
    assert empirical_range(flat, 1e-6) == 19  # constant curve above theta
    assert empirical_range(flat, 1.0) == 0    # everything below theta

    crossing = DecayCurve(hops=hops, measured=np.geomspace(1.0, 1e-12, 20),
                          bound=np.ones(20), gamma=0.5, scale_m=1)
    theta = crossing.measured[12] * 0.99  # between hop 12 and hop 13
    assert empirical_range(crossing, theta) == 12  # theta 0: test_rejections.CALLS


def test_curve_csv_layout(tmp_path):
    curve = DecayCurve(hops=np.array([0, 1]), measured=np.array([1.0, 0.25]),
                       bound=np.array([2.0, 0.5]), gamma=0.5, scale_m=2)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert b"\r" not in path.read_bytes()  # LF line ends, as every file written
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "hop,measured,bound,gamma,m"
    assert lines[1].split(",") == ["0", "1.0", "2.0", "0.5", "2"]


def test_range_containment_on_unit_norm_chain():
    # on a directed chain every |S^h_{p,q}| is 1 and ||g|| < 1, so with the
    # injected perturbation scaled to unit norm the empirical range cannot
    # exceed the closed-form bound
    g, encode, f, cfg = chain_probe_setup(length=80)
    perturbed = g.features.copy()
    perturbed[:, 0] = 0.0
    delta_norm = np.linalg.norm(encode(g.features)[:, 0] - encode(perturbed)[:, 0])
    unit_encode = lambda x: encode(x) / delta_norm
    theta = 1e-6
    for gamma in (0.4, 0.6, 0.8):
        for m in (1, 2):
            module = ScaleModule(f_weight=f, gamma=gamma, scale_m=m)
            curve = measure_decay(module, g, unit_encode, p=0, cfg=cfg)
            assert empirical_range(curve, theta) <= range_bound(gamma, theta, m)


def test_clamping_below_denormal_floor():
    g, encode, f, cfg = chain_probe_setup(length=40)
    # gamma small: far hops underflow toward 0 and must be clamped exactly
    module = ScaleModule(f_weight=f * 1e-3, gamma=0.1)
    curve = measure_decay(module, g, encode, p=0, cfg=cfg)
    tail = curve.measured[curve.hops > 30]
    assert np.all((tail == 0.0) | (tail >= 1e-300))
