"""Connector algebra: exact partials, degenerate rule, diagonal flow."""

import warnings

import numpy as np
import pytest

from certitrain import tensor as T
from certitrain.connector import ConnectorParams, connector_node, connector_partials


def partials_scalar(lo, hi, z, c):
    d_lo, d_hi = connector_partials(np.array([lo]), np.array([hi]), np.array([z]),
                                    ConnectorParams(c=c))
    return float(d_lo[0]), float(d_hi[0])


def test_formula_at_lower_bound():
    assert partials_scalar(0.0, 1.0, 0.0, 0.5) == (1.0, 0.0)


def test_formula_quarter_point():
    assert partials_scalar(0.0, 1.0, 0.25, 0.5) == (0.5, 0.0)


def test_linear_connector_sums_to_one():
    d_lo, d_hi = partials_scalar(0.0, 1.0, 0.3, 1.0)
    np.testing.assert_allclose([d_lo, d_hi], [0.7, 0.3], atol=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(20):
        lo = rng.normal()
        hi = lo + rng.uniform(0.1, 2.0)
        z = rng.uniform(lo, hi)
        d_lo, d_hi = partials_scalar(lo, hi, z, 1.0)
        assert abs(d_lo + d_hi - 1.0) < 1e-12


def test_subnormal_c_overflows_silently():
    # rel / c overflows to inf; 1 - inf clamps to the same partial 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert partials_scalar(0.0, 1.0, 0.5, 1e-310) == (0.0, 0.0)
        assert partials_scalar(0.0, 1.0, 0.0, 1e-310) == (1.0, 0.0)


def test_degenerate_box_is_half_half():
    assert partials_scalar(0.4, 0.4, 0.4, 0.5) == (0.5, 0.5)
    assert partials_scalar(0.4, 0.4, 0.4, 0.0) == (0.5, 0.5)
    assert partials_scalar(0.4, 0.4, 0.4, 1.0) == (0.5, 0.5)


def test_binary_connector_indicator():
    assert partials_scalar(0.0, 1.0, 0.0, 0.0) == (1.0, 0.0)
    assert partials_scalar(0.0, 1.0, 1.0, 0.0) == (0.0, 1.0)
    assert partials_scalar(0.0, 1.0, 0.5, 0.0) == (0.0, 0.0)
    # float-noise on the bound still counts as "at the bound"
    assert partials_scalar(0.0, 1.0, 5e-10, 0.0) == (1.0, 0.0)


def test_c_limits_recover_binary_and_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        lo = rng.normal()
        hi = lo + rng.uniform(0.05, 3.0)
        z = rng.choice([lo, hi, rng.uniform(lo, hi)])
        got_bin = partials_scalar(lo, hi, z, 0.0)
        expect_bin = (float(abs(z - lo) <= 1e-9), float(abs(hi - z) <= 1e-9))
        assert got_bin == expect_bin
        got_lin = partials_scalar(lo, hi, z, 1.0)
        expect_lin = ((hi - z) / (hi - lo), (z - lo) / (hi - lo))
        np.testing.assert_allclose(got_lin, expect_lin, atol=1e-12)


def test_partials_bounded_and_banded():
    rng = np.random.default_rng(2)
    lo = rng.normal(size=100)
    hi = lo + rng.uniform(0.1, 2.0, size=100)
    z = lo + rng.uniform(0, 1, size=100) * (hi - lo)
    for c in (0.25, 0.5, 0.75, 1.0):
        d_lo, d_hi = connector_partials(lo, hi, z, ConnectorParams(c=c))
        assert np.all(d_lo >= 0) and np.all(d_lo <= 1)
        assert np.all(d_hi >= 0) and np.all(d_hi <= 1)
        outside_lo_band = (z - lo) >= c * (hi - lo)
        assert np.all(d_lo[outside_lo_band] == 0.0)
        outside_hi_band = (hi - z) >= c * (hi - lo)
        assert np.all(d_hi[outside_hi_band] == 0.0)


def test_escaped_point_raises():
    with pytest.raises(ValueError, match="escapes"):
        connector_partials(np.array([0.0]), np.array([1.0]), np.array([1.5]),
                           ConnectorParams())


def test_node_routes_chain_rule_diagonally():
    tape = T.Tape()
    lo = tape.leaf(np.array([[0.0, -1.0, 2.0]]))
    hi = tape.leaf(np.array([[1.0, 1.0, 2.0]]))
    z = np.array([[0.0, 0.5, 2.0]])
    node = connector_node(lo, hi, z, ConnectorParams(c=0.5))
    root = T.sum_all(T.pick_cols(node, np.array([0])))
    grads = T.backward(tape, root)
    np.testing.assert_allclose(grads[lo.id], [[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(grads[hi.id], [[0.0, 0.0, 0.0]])


def test_two_connectors_accumulate():
    tape = T.Tape()
    lo = tape.leaf(np.array([[0.0, 0.0]]))
    hi = tape.leaf(np.array([[1.0, 1.0]]))
    z = np.array([[0.0, 1.0]])
    params = ConnectorParams(c=0.5)
    n1 = connector_node(lo, hi, z, params)
    n2 = connector_node(lo, hi, z, params)
    single = T.backward(tape, T.sum_all(n1))
    double = T.backward(tape, T.sum_all(T.add(n1, n2)))
    np.testing.assert_allclose(double[lo.id], 2 * single[lo.id])
    np.testing.assert_allclose(double[hi.id], 2 * single[hi.id])


def test_no_cross_coordinate_flow():
    rng = np.random.default_rng(3)
    lo_v = rng.normal(size=(1, 4))
    hi_v = lo_v + rng.uniform(0.2, 1.0, size=(1, 4))
    z = lo_v + rng.uniform(0, 0.2, size=(1, 4)) * (hi_v - lo_v)
    for j in range(4):
        tape = T.Tape()
        lo = tape.leaf(lo_v)
        hi = tape.leaf(hi_v)
        node = connector_node(lo, hi, z, ConnectorParams(c=0.9))
        root = T.sum_all(T.pick_cols(node, np.array([j])))
        grads = T.backward(tape, root)
        mask = np.zeros(4, dtype=bool)
        mask[j] = True
        assert np.all(grads[lo.id][0][~mask] == 0.0)
        assert np.all(grads[hi.id][0][~mask] == 0.0)


def test_midpoint_identity_with_linear_connector():
    """c=1 with the point at the box center must reproduce the midpoint map's
    gradient: d(loss)/d(bounds) as if loss were evaluated at (lo+hi)/2."""
    rng = np.random.default_rng(4)
    lo_v = rng.normal(size=(2, 3))
    hi_v = lo_v + rng.uniform(0.5, 1.5, size=(2, 3))
    mid = 0.5 * (lo_v + hi_v)
    w = rng.normal(size=(3, 3))

    def downstream(tape, z_node):
        h = T.relu(T.matmul(z_node, tape.constant(w)))
        return T.sum_all(T.mul(h, h))

    tape = T.Tape()
    lo, hi = tape.leaf(lo_v), tape.leaf(hi_v)
    node = connector_node(lo, hi, mid, ConnectorParams(c=1.0))
    g_conn = T.backward(tape, downstream(tape, node))

    tape2 = T.Tape()
    lo2, hi2 = tape2.leaf(lo_v), tape2.leaf(hi_v)
    mid_node = T.scale(T.add(lo2, hi2), 0.5)
    g_mid = T.backward(tape2, downstream(tape2, mid_node))

    np.testing.assert_allclose(g_conn[lo.id], g_mid[lo2.id], atol=1e-12)
    np.testing.assert_allclose(g_conn[hi.id], g_mid[hi2.id], atol=1e-12)


def test_invalid_c_rejected():
    with pytest.raises(ValueError, match="c must"):
        ConnectorParams(c=1.5)
