"""Tape engine: primitive values, convolution geometry, the chain rule, the
backward sweep's memory discipline, and the finite-difference oracle."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certitrain import tensor as T
from certitrain.interval import box_from_ball
from certitrain.loss import fast_regularizer_node, ibp_loss_terms
from certitrain.net import build_architecture, init_params, lift_params
from helpers import finite_diff_check, reference_col2im, reference_im2col


_scalar_tapes = []


def scalar_tape():
    """A fresh tape whose node values must all be finite when the test ends."""
    _scalar_tapes.append(T.Tape())
    return _scalar_tapes[-1]


@pytest.fixture(autouse=True)
def _scalar_tapes_finite():
    _scalar_tapes.clear()
    yield
    assert all(np.all(np.isfinite(n.value)) for tape in _scalar_tapes for n in tape.nodes)


def test_matmul_value():
    tape = scalar_tape()
    a = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tape.leaf(np.array([[1.0], [1.0]]))
    assert np.array_equal(T.matmul(a, b).value, [[3.0], [7.0]])


def test_relu_value():
    tape = scalar_tape()
    x = tape.leaf(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(T.relu(x).value, [0.0, 0.0, 2.0])


def test_conv2d_ones():
    tape = scalar_tape()
    x = tape.leaf(np.ones((1, 1, 3, 3)))
    w = tape.leaf(np.ones((1, 1, 2, 2)))
    b = tape.leaf(np.zeros(1))
    out = T.conv2d(x, w, b, stride=1, padding=0)
    assert out.value.shape == (1, 1, 2, 2)
    assert np.array_equal(out.value, np.full((1, 1, 2, 2), 4.0))


def conv_reference(x, w, b, stride, padding):
    """Six-loop convolution, the validation reference for the im2col path."""
    bs, c, h, ww = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, oc, oh, ow))
    for n in range(bs):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1), (3, 2)])
def test_conv2d_matches_loop_reference(stride, padding):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 8, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    tape = scalar_tape()
    out = T.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b), stride, padding)
    ref = conv_reference(x, w, b, stride, padding)
    np.testing.assert_allclose(out.value, ref, atol=1e-12)


CONV_KERNELS = [(1, 1), (3, 3), (4, 4), (2, 3)]


@pytest.mark.parametrize("kh,kw", CONV_KERNELS, ids=[f"{kh}x{kw}" for kh, kw in CONV_KERNELS])
def test_conv2d_geometry_grid(kh, kw):
    """Every stride 1-3 and padding 0-2 on a non-square input, for one and
    several samples and channels, against the loop reference."""
    rng = np.random.default_rng(kh * 10 + kw)
    for bsz in (1, 3):
        for c in (1, 3):
            x = rng.normal(size=(bsz, c, 5, 7))
            w = rng.normal(size=(2, c, kh, kw))
            b = rng.normal(size=2)
            for stride in (1, 2, 3):
                for padding in (0, 1, 2):
                    tape = T.Tape()
                    out = T.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b), stride, padding)
                    np.testing.assert_allclose(out.value, conv_reference(x, w, b, stride, padding),
                                               atol=1e-12, err_msg=f"B={bsz} C={c} s={stride} p={padding}")


@pytest.mark.parametrize("kh,kw,stride,padding", [(3, 3, 1, 1), (4, 4, 2, 1), (2, 3, 3, 2), (1, 1, 2, 0)])
def test_col2im_is_adjoint_of_im2col(kh, kw, stride, padding):
    """<col2im(C), X> == <im2col(X), C> for every patch matrix C and input X."""
    rng = np.random.default_rng(kh + 7 * stride + 31 * padding)
    x_shape = (3, 2, 6, 9)
    x = rng.normal(size=x_shape)
    cols = T.im2col(x, kh, kw, stride, padding)
    oh, ow = T._conv_geometry(x_shape, (1, 2, kh, kw), stride, padding)
    assert cols.shape == (2 * kh * kw, 3 * oh * ow)
    c = rng.normal(size=cols.shape)
    back = T.col2im(c, x_shape, kh, kw, stride, padding)
    assert back.shape == x_shape
    np.testing.assert_allclose(np.vdot(back, x), np.vdot(cols, c), rtol=1e-12)


def _assert_patch_kernels_match_reference(rng, x_shape, kh, kw, stride, padding):
    """im2col and col2im equal the tap-by-tap reference bit for bit; col2im
    leaves its argument as it found it and returns a C-contiguous array."""
    where = f"x {x_shape}, kernel {kh}x{kw}, stride {stride}, padding {padding}"
    x = rng.normal(size=x_shape)
    cols = T.im2col(x, kh, kw, stride, padding)
    ref = reference_im2col(x, kh, kw, stride, padding)
    assert np.array_equal(cols, ref) and cols.tobytes() == ref.tobytes(), where
    g = rng.normal(size=cols.shape)
    before = g.tobytes()
    back = T.col2im(g, x_shape, kh, kw, stride, padding)
    assert g.tobytes() == before, f"col2im wrote into its argument: {where}"
    assert back.flags["C_CONTIGUOUS"], where
    ref = reference_col2im(g, x_shape, kh, kw, stride, padding)
    assert np.array_equal(back, ref) and back.tobytes() == ref.tobytes(), where


PATCH_KERNELS = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (1, 4), (3, 2), (5, 3)]
# odd and even H and W; (6, 9) with a 4x4 kernel, stride 2 and padding 1 reads
# column 8, past the 4-wide stride-phase planes
PATCH_INPUTS = [(2, 2, 6, 9), (1, 3, 7, 8), (3, 1, 5, 5), (2, 2, 8, 6)]


@pytest.mark.parametrize("kh,kw", PATCH_KERNELS, ids=[f"{kh}x{kw}" for kh, kw in PATCH_KERNELS])
def test_patch_kernels_match_tap_by_tap_reference(kh, kw):
    rng = np.random.default_rng(100 + 10 * kh + kw)
    for x_shape in PATCH_INPUTS:
        for stride in (1, 2, 3):
            for padding in (0, 1, 2):
                if min(x_shape[2] + 2 * padding - kh, x_shape[3] + 2 * padding - kw) < 0:
                    continue  # empty output
                _assert_patch_kernels_match_reference(rng, x_shape, kh, kw, stride, padding)


# cnn3's two layers at every batch size its training sees (115 is the last
# batch of the benchmark's epoch), and cnn7's stride-2 layer
LAYER_PATCHES = [(f"cnn3-conv{k + 1}-B{b}", (b,) + chw, 4, 2, 1)
                 for k, chw in enumerate([(1, 28, 28), (16, 14, 14)]) for b in (1, 5, 115, 128)]
LAYER_PATCHES.append(("cnn7-conv3-B3", (3, 64, 28, 28), 3, 2, 1))


@pytest.mark.parametrize("x_shape,k,stride,padding", [c[1:] for c in LAYER_PATCHES],
                         ids=[c[0] for c in LAYER_PATCHES])
def test_patch_kernels_bit_identical_on_layer_shapes(x_shape, k, stride, padding):
    rng = np.random.default_rng(x_shape[0] + x_shape[1])
    _assert_patch_kernels_match_reference(rng, x_shape, k, k, stride, padding)


def test_kink_distances_only_on_tapes_that_count_kinks(monkeypatch):
    """A default tape counts no kinks, so the piecewise primitives must not
    build the distance arrays that counting reads."""
    def refuse(self, distances):
        raise AssertionError("kink distances built on a tape without kink_tol")

    monkeypatch.setattr(T.Tape, "_note_kinks", refuse)
    tape = T.Tape()
    x = tape.leaf(np.array([[-1.0, 0.25, 2.0]]))
    T.relu(x)
    T.abs_(x)
    T.clamp(x, 0.0, 1.0)
    T.elided_abs_linear(x, tape.leaf(np.arange(6.0).reshape(2, 3)), [1])


def test_shape_mismatch_is_descriptive():
    tape = scalar_tape()
    a = tape.leaf(np.zeros((2, 3)))
    b = tape.leaf(np.zeros((3, 3)))
    with pytest.raises(T.ShapeError, match="add"):
        T.add(a, b)
    with pytest.raises(T.ShapeError, match="matmul"):
        T.matmul(a, tape.leaf(np.zeros((2, 2))))


def test_backward_square_sum():
    tape = scalar_tape()
    x = tape.leaf(np.array([1.0, 2.0, 3.0]))
    root = T.sum_all(T.mul(x, x))
    grads = T.backward(tape, root)
    np.testing.assert_allclose(grads[x.id], [2.0, 4.0, 6.0])


def test_backward_inactive_relu_zero():
    tape = scalar_tape()
    x = tape.leaf(np.array(-1.0).reshape(()))
    root = T.relu(x)
    grads = T.backward(tape, root)
    assert grads[x.id] == 0.0


def test_backward_rejects_nonscalar_root():
    tape = scalar_tape()
    x = tape.leaf(np.zeros(3))
    with pytest.raises(ValueError, match="scalar"):
        T.backward(tape, x)


def test_unreachable_nodes_get_zero_gradient():
    tape = scalar_tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    unused = T.scale(x, 3.0)
    root = T.sum_all(x)
    grads = T.backward(tape, root)
    assert np.array_equal(grads[unused.id], np.zeros(2))


def test_fanout_accumulation_matches_duplicated_subgraph():
    # y = x*x + x*x built with a shared node vs with duplicated leaves.
    val = np.array([1.5, -2.0, 0.5])
    tape = scalar_tape()
    x = tape.leaf(val)
    sq = T.mul(x, x)
    root = T.sum_all(T.add(sq, sq))
    g_shared = T.backward(tape, root)[x.id]

    tape2 = scalar_tape()
    x1 = tape2.leaf(val)
    x2 = tape2.leaf(val)
    root2 = T.sum_all(T.add(T.mul(x1, x1), T.mul(x2, x2)))
    grads2 = T.backward(tape2, root2)
    np.testing.assert_allclose(g_shared, grads2[x1.id] + grads2[x2.id])


PRIMITIVE_CASES = [
    ("add", lambda t, a: T.sum_all(T.add(a, T.scale(a, 0.5)))),
    ("mul", lambda t, a: T.sum_all(T.mul(a, T.scale(a, -1.3)))),
    ("abs", lambda t, a: T.sum_all(T.abs_(a))),
    ("clamp", lambda t, a: T.sum_all(T.clamp(a, -0.5, 0.75))),
    ("mean", lambda t, a: T.mean_all(T.mul(a, a))),
    ("log1psumexp", lambda t, a: T.sum_all(T.log1p_sum_exp_rows(T.reshape(a, (2, 3))))),
    ("repeat", lambda t, a: T.sum_all(T.mul(T.repeat_rows(T.reshape(a, (2, 3)), 2), t.constant(np.arange(12.0).reshape(4, 3))))),
]


@pytest.mark.parametrize("name,builder", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable across processes
    theta = rng.normal(size=6) * 0.8

    def f(node):
        return builder(node.tape, node)

    report = finite_diff_check(f, theta, step=1e-6)
    assert report.n_checked > 0
    assert report.max_rel_err < 1e-5, report


def test_matmul_gradient_fd():
    rng = np.random.default_rng(3)
    proj = rng.normal(size=(4, 2))

    def f(node):
        tape = node.tape
        m = T.reshape(node, (3, 4))
        out = T.matmul(m, tape.constant(proj))
        return T.sum_all(T.mul(out, out))

    report = finite_diff_check(f, rng.normal(size=12), step=1e-6)
    assert report.max_rel_err < 1e-6


def test_conv2d_gradient_fd():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2, 5, 5))

    def f(node):
        tape = node.tape
        w = T.reshape(node, (3, 2, 2, 2))
        b = tape.constant(np.zeros(3))
        out = T.conv2d(tape.constant(x), w, b, stride=2, padding=1)
        return T.sum_all(T.mul(out, out))

    report = finite_diff_check(f, rng.normal(size=24), step=1e-6)
    assert report.max_rel_err < 1e-5


def test_conv2d_input_gradient_fd():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(2, 1, 3, 3))

    def f(node):
        tape = node.tape
        x = T.reshape(node, (1, 1, 4, 4))
        out = T.conv2d(x, tape.constant(w), tape.constant(np.zeros(2)), stride=1, padding=1)
        return T.sum_all(T.mul(out, out))

    report = finite_diff_check(f, rng.normal(size=16), step=1e-6)
    assert report.max_rel_err < 1e-5


def test_conv2d_all_gradients_fd():
    """Input, weight and bias gradients of one strided, padded, non-square
    kernel against central differences."""
    rng = np.random.default_rng(8)
    args = {"x": rng.normal(size=(2, 2, 5, 6)), "w": rng.normal(size=(3, 2, 2, 3)),
            "b": rng.normal(size=3)}
    coeff = rng.normal(size=(2, 3, 3, 3))

    for name, value in args.items():
        def f(node, name=name, value=value):
            tape = node.tape
            nodes = {k: tape.constant(v) for k, v in args.items() if k != name}
            nodes[name] = T.reshape(node, value.shape)
            out = T.conv2d(nodes["x"], nodes["w"], nodes["b"], stride=2, padding=1)
            return T.sum_all(T.mul(out, tape.constant(coeff)))

        report = finite_diff_check(f, value.ravel(), step=1e-6)
        assert report.n_checked == value.size
        assert report.max_rel_err < 1e-6, (name, report)


def test_label_primitives_values_and_grads():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    y = np.array([1, 0, 3])
    tape = scalar_tape()
    node = tape.leaf(a)

    picked = T.pick_cols(node, y)
    np.testing.assert_allclose(picked.value, a[np.arange(3), y])

    diffs = T.sub_col_pick(node, y)
    np.testing.assert_allclose(diffs.value, a - a[np.arange(3), y][:, None])
    assert np.all(diffs.value[np.arange(3), y] == 0.0)

    dropped = T.drop_col(node, y)
    assert dropped.value.shape == (3, 3)
    np.testing.assert_allclose(dropped.value[0], a[0, [0, 2, 3]])
    np.testing.assert_allclose(dropped.value[1], a[1, [1, 2, 3]])

    weights = rng.normal(size=(3, 3))

    def f(node_):
        m = T.reshape(node_, (3, 4))
        return T.sum_all(T.mul(T.drop_col(T.sub_col_pick(m, y), y), node_.tape.constant(weights)))

    report = finite_diff_check(f, a.ravel(), step=1e-6)
    assert report.max_rel_err < 1e-6


def test_elided_abs_linear_value_and_grad():
    rng = np.random.default_rng(13)
    delta = np.abs(rng.normal(size=(2, 5)))
    w = rng.normal(size=(4, 5))
    y = np.array([2, 0])
    tape = scalar_tape()
    out = T.elided_abs_linear(tape.leaf(delta), tape.leaf(w), y)
    expected = np.stack([
        np.abs(w - w[y[b]][None, :]) @ delta[b] for b in range(2)
    ])
    np.testing.assert_allclose(out.value, expected, atol=1e-12)

    coeff = rng.normal(size=(2, 4))

    def f_w(node):
        m = T.reshape(node, (4, 5))
        o = T.elided_abs_linear(node.tape.constant(delta), m, y)
        return T.sum_all(T.mul(o, node.tape.constant(coeff)))

    report = finite_diff_check(f_w, w.ravel(), step=1e-7)
    assert report.max_rel_err < 1e-5, report

    def f_d(node):
        m = T.reshape(node, (2, 5))
        o = T.elided_abs_linear(m, node.tape.constant(w), y)
        return T.sum_all(T.mul(o, node.tape.constant(coeff)))

    report = finite_diff_check(f_d, delta.ravel(), step=1e-7)
    assert report.max_rel_err < 1e-5, report


@settings(max_examples=40, deadline=None, derandomize=True)  # the same examples every run
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=4), st.integers(0, 2**31 - 1))
def test_chain_rule_property(values, seed):
    """Random composite graphs agree with finite differences at non-kink points."""
    theta = np.asarray(values)
    rng = np.random.default_rng(seed)
    proj = rng.normal(size=(4, 3))

    def f(node):
        tape = node.tape
        h = T.matmul(T.reshape(node, (1, 4)), tape.constant(proj))
        h = T.relu(h)
        return T.sum_all(T.log1p_sum_exp_rows(h))

    report = finite_diff_check(f, theta, step=1e-6)
    if report.n_checked:
        assert report.max_rel_err < 1e-4


def test_determinism_bitwise():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=20)

    def run():
        tape = T.Tape()
        x = tape.leaf(theta)
        h = T.relu(T.matmul(T.reshape(x, (4, 5)), tape.constant(np.arange(15.0).reshape(5, 3))))
        root = T.mean_all(T.mul(h, h))
        grads = T.backward(tape, root)
        return root.value.tobytes(), grads[x.id].tobytes()

    assert run() == run()


def test_finite_diff_quadratic_exact():
    report = finite_diff_check(lambda n: T.sum_all(T.mul(n, n)), np.array([3.0]), step=1e-6)
    assert report.max_rel_err < 1e-9


def test_finite_diff_skips_kink_coordinates():
    # theta sits exactly on the relu kink: the check must skip, not fail.
    report = finite_diff_check(lambda n: T.sum_all(T.relu(n)), np.array([0.0, 1.0]), step=1e-6)
    assert report.n_skipped >= 1


# ---------------------------------------------------------------------------
# Backward-sweep guard: gradients are stored uncopied during the sweep, so
# nothing may write into a value or hand out two views of one array.
# ---------------------------------------------------------------------------

def _cnn3_ibp_tape():
    net = init_params(build_architecture("cnn3", (1, 12, 12), 4, 0), 3, "kaiming")
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(3, 1, 12, 12))
    y = np.array([0, 3, 1])
    tape = T.Tape()
    params = lift_params(tape, net)
    box = box_from_ball(X, 0.05)
    collected = []
    root = T.mean_all(ibp_loss_terms(tape, net, params, box, y, collect=collected))
    root = T.add(root, T.scale(fast_regularizer_node(tape, net, params, box, 0.5,
                                                     collected=collected), 0.3))
    wanted = [node.id for entry in params if entry for node in entry.values()]
    return tape, root, wanted


def _self_add_tape():
    """One node feeds both inputs of an add."""
    tape = T.Tape()
    x = tape.leaf(np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]]))
    h = T.scale(x, 2.0)
    y = T.add(h, h)
    root = T.sum_all(T.mul(y, tape.constant(np.arange(6.0).reshape(2, 3))))
    return tape, root, [x.id, h.id, y.id]


def _two_params_add_tape():
    """Two parameter leaves meet in one add, behind a transpose; one of them
    has an earlier consumer, so its gradient accumulates after the add's."""
    tape = T.Tape()
    a = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), op="param")
    b = tape.leaf(np.array([[0.5, -1.0], [2.0, 0.0], [1.5, 1.0]]), op="param")
    early = T.sum_all(T.mul(T.scale(a, 3.0), a))
    s = T.transpose(T.add(a, b))
    late = T.sum_all(T.mul(T.matmul(tape.constant(np.ones((4, 2))), s),
                           tape.constant(np.arange(12.0).reshape(4, 3))))
    return tape, T.add(late, early), [a.id, b.id]


def _copying_sweep(tape, root):
    """Reference sweep that hands every rule and every accumulator a copy."""
    grads = {root.id: np.asarray(1.0)}
    for node in reversed(tape.nodes[: root.id + 1]):
        g = grads.get(node.id)
        if g is None or node.backward_rule is None:
            continue
        for inp, ig in zip(node.inputs, node.backward_rule(g.copy())):
            grads[inp.id] = ig.copy() if inp.id not in grads else grads[inp.id] + ig
    return grads


@pytest.mark.parametrize("build", [_cnn3_ibp_tape, _self_add_tape, _two_params_add_tape],
                         ids=["cnn3-ibp", "self-add", "two-params-add"])
def test_backward_sweep_copies_only_what_it_returns(build):
    tape, root, wanted = build()
    values = [node.value.tobytes() for node in tape.nodes]
    full = T.backward(tape, root)
    part = T.backward(tape, root, wanted=wanted)
    # the sweep writes into no value
    assert [node.value.tobytes() for node in tape.nodes] == values
    # and gets the bytes of a sweep that copies everything
    for nid, g in _copying_sweep(tape, root).items():
        assert full[nid].tobytes() == g.tobytes(), tape.nodes[nid]
    # a restricted sweep returns the full sweep's bytes
    assert set(part) == set(wanted)
    for nid in wanted:
        assert part[nid].tobytes() == full[nid].tobytes()
        assert part[nid].flags["C_CONTIGUOUS"]
    # no two returned gradients share memory: writing into one changes no other
    for grads in (full, part):
        for nid, g in grads.items():
            before = {k: v.copy() for k, v in grads.items() if k != nid}
            g += 1.0
            assert all(np.array_equal(grads[k], v) for k, v in before.items()), nid
