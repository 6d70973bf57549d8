"""Layer protocol: every layer kind's transfers agree with each other.

Each case is one layer inside a real architecture, fed the activations the
layers before it produce.  A new layer kind is covered by adding a stack that
contains it to ``STACKS``; ``test_stacks_cover_every_layer_kind`` fails until
one does.
"""

import numpy as np
import pytest

from certitrain import tensor as T
from certitrain.checkpoint import load_checkpoint, save_checkpoint
from certitrain.net import LAYER_KINDS, build_architecture, forward_batch, init_params

# (architecture, input shape); inputs small enough that the dense operators
# of the conv layers stay small
STACKS = [
    ("mlp", (1, 4, 4)),   # starts with a Flatten
    ("cnn3", (1, 8, 8)),
    ("cnn7", (1, 4, 4)),
]


def _stack(arch, in_shape):
    net = build_architecture(arch, in_shape, 3, 1, hidden=(12, 10))
    net = init_params(net, 5, "kaiming")
    rng = np.random.default_rng(6)
    # nonzero biases, so offsets are checked too
    return net.with_params([a + 0.1 * rng.normal(size=a.shape) for a in net.param_arrays()])


NETS = {arch: _stack(arch, shape) for arch, shape in STACKS}
CASES = [(arch, i) for arch, net in NETS.items() for i in range(len(net.layers))]


def _case_id(case):
    arch, i = case
    return f"{arch}-{i}-{NETS[arch].layers[i].kind}"


def test_stacks_cover_every_layer_kind():
    assert {NETS[arch].layers[i].kind for arch, i in CASES} == set(LAYER_KINDS)


@pytest.mark.parametrize("arch,i", CASES, ids=[_case_id(c) for c in CASES])
def test_layer_transfers_agree(arch, i, tmp_path):
    net = NETS[arch]
    layer = net.layers[i]
    rng = np.random.default_rng(i)
    x = forward_batch(net, rng.uniform(0.0, 1.0, size=(3,) + net.input_shape), stop=i)
    out = layer.forward(x)
    assert out.shape == (x.shape[0],) + net.shape_after(i + 1)

    # taped forward, and the input VJP against the tape's input gradient:
    # equal bit for bit where both paths run one kernel, every kind but affine
    tape = T.Tape()
    xn = tape.leaf(x)
    taped = layer.forward_on_tape(xn, layer.lift(tape))
    g = rng.normal(size=out.shape)
    grads = T.backward(tape, T.sum_all(T.mul(taped, tape.constant(g))), wanted=[xn.id])
    vjp = layer.input_vjp(g, x)
    if layer.kind == "affine":
        np.testing.assert_allclose(taped.value, out, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(vjp, grads[xn.id], rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(taped.value, out)
        assert np.array_equal(vjp, grads[xn.id])

    # operator @ x + offset on flattened features; None: no parameters, and
    # a layer other than ReLU then passes features through
    flat_in, flat_out = x.reshape(x.shape[0], -1), out.reshape(x.shape[0], -1)
    op = layer.affine_operator(net.shape_after(i))
    if op is not None:
        m, offset = op
        np.testing.assert_allclose(flat_in @ m.T + offset, flat_out, rtol=1e-10, atol=1e-12)
    elif layer.kind != "relu":
        np.testing.assert_array_equal(flat_out, flat_in)

    # sampled forward outputs lie inside the taped box, and the numpy box
    # equals the taped one bit for bit, for a batch of 3 and of 1
    lo, hi = x - 0.05, x + 0.07
    tape = T.Tape()
    out_lo, out_hi = layer.box_on_tape(tape.constant(lo), tape.constant(hi), layer.lift(tape))
    for _ in range(8):
        sample = layer.forward(lo + rng.uniform(size=x.shape) * (hi - lo))
        assert np.all(sample >= out_lo.value - 1e-12)
        assert np.all(sample <= out_hi.value + 1e-12)
    for rows in (slice(None), slice(1, 2)):
        tape = T.Tape()
        taped = layer.box_on_tape(tape.constant(lo[rows]), tape.constant(hi[rows]),
                                  layer.lift(tape))
        concrete = layer.box(lo[rows], hi[rows])
        assert all(np.array_equal(c, t.value) for c, t in zip(concrete, taped))

    # the box's reverse pass equals the taped box's backward bit for bit:
    # the input adjoints, and the parameter gradients in ``param_names`` order
    g_lo, g_hi = rng.normal(size=out.shape), rng.normal(size=out.shape)
    tape = T.Tape()
    lo_n, hi_n, p = tape.leaf(lo), tape.leaf(hi), layer.lift(tape)
    out_lo, out_hi = layer.box_on_tape(lo_n, hi_n, p)
    root = T.add(T.sum_all(T.mul(out_lo, tape.constant(g_lo))),
                 T.sum_all(T.mul(out_hi, tape.constant(g_hi))))
    wanted = [lo_n.id, hi_n.id] + [p[name].id for name in layer.param_names]
    taped = T.backward(tape, root, wanted=wanted)
    kept = {}
    layer.box(lo, hi, kept)
    d_lo, d_hi, param_grads = layer.box_vjp(lo, hi, g_lo, g_hi, kept)
    assert [a.tobytes() for a in (d_lo, d_hi, *param_grads)] == [taped[k].tobytes() for k in wanted]
    skip_lo, skip_hi, skip_grads = layer.box_vjp(lo, hi, g_lo, g_hi, kept, inputs=False)
    assert skip_lo is None and skip_hi is None
    assert [a.tobytes() for a in skip_grads] == [a.tobytes() for a in param_grads]

    # descriptor -> save -> load -> save gives the same layer and the same bytes
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, net)
    loaded, _ = load_checkpoint(first)
    back = loaded.layers[i]
    assert type(back) is type(layer) and back.descriptor() == layer.descriptor()
    assert [a.tobytes() for a in back.params()] == [a.tobytes() for a in layer.params()]
    save_checkpoint(second, loaded)
    assert first.read_bytes() == second.read_bytes()
