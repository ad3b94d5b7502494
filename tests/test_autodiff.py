import numpy as np
import pytest

from mgam import autodiff as ad
from mgam.autodiff import Tensor
from mgam.errors import UsageError
from mgam.training import adam_step, init_adam

from finite_difference import finite_difference_grad


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_forced_value():
    out = ad.softmax(Tensor([np.log(2.0), 0.0]))
    assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_shift_invariance():
    for c in (0.7, -3.0, 40.0):
        a = ad.softmax(Tensor([5.0, 5.0 + c, 5.0]))
        b = ad.softmax(Tensor([0.0, c, 0.0]))
        assert np.abs(a.data - b.data).max() < 1e-12


def test_softmax_valid_probability_vectors():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.uniform(-50, 50, size=rng.integers(1, 12))
        out = ad.softmax(Tensor(v)).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-9


def test_softmax_empty_rejected():
    with pytest.raises(UsageError):
        ad.softmax(Tensor(np.zeros(0)))


def _bits(a) -> np.ndarray:
    """The bit patterns of a float array, every NaN as np.nan's: a NaN's
    sign and payload are not compared, since numpy's own loops disagree
    on them where two NaNs meet."""
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64)


@pytest.mark.parametrize("n", range(1, 13))
def test_short_axis_reductions_equal_numpys_bitwise(n):
    """Softmax's max and sums, in the forward and the vjp, and
    `tensor_mean` reduce an axis shorter than 8 by slice passes; on every
    axis, at lengths on both sides of that cut, the results equal numpy's
    own reductions bit for bit, the sign of a zero included: on values of
    mixed scale, on rows padded with -inf, and on NaN, ±0 and ±inf."""
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e16, 1e-300, np.inf, -np.inf, np.nan])
    for trial in range(30):
        x = rng.standard_normal((4, 3, n)) * 10.0 ** rng.integers(-5, 17, size=(4, 3, n))
        if trial % 3 == 1:
            x = rng.choice(special, size=x.shape)
        elif trial % 3 == 2:   # masked-softmax rows: real entries, then -inf padding
            x[np.arange(n) >= rng.integers(1, n + 1, size=(4, 3, 1))] = -np.inf
            x[rng.random(x.shape) < 0.1] = rng.choice([0.0, -0.0, np.nan])
        for axis in (0, 1, 2, -1):
            y = np.ascontiguousarray(np.moveaxis(x, -1, axis))
            with np.errstate(invalid="ignore", over="ignore"):
                for ufunc in (np.maximum, np.add):
                    for keepdims in (True, False):
                        assert np.array_equal(
                            _bits(ad._reduce(ufunc, y, axis, keepdims)),
                            _bits(ufunc.reduce(y, axis=axis, keepdims=keepdims)))
                t = Tensor(y, requires_grad=True)
                out = ad.softmax(t, axis)
                e = np.exp(y - y.max(axis=axis, keepdims=True))
                p = e / e.sum(axis=axis, keepdims=True)
                assert np.array_equal(_bits(out.data), _bits(p))
                g = rng.standard_normal(y.shape)
                g[rng.random(y.shape) < 0.2] = -0.0
                ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))   # d out = g
                assert np.array_equal(
                    _bits(t.grad), _bits(p * (g - (g * p).sum(axis=axis, keepdims=True))))
                assert np.array_equal(_bits(ad.tensor_mean(Tensor(y), axis).data),
                                      _bits(y.mean(axis=axis)))


def test_activations():
    assert ad.relu(Tensor(-1.0)).data == 0.0
    assert ad.relu(Tensor(2.0)).data == 2.0
    assert ad.sigmoid(Tensor(0.0)).data == 0.5
    x = ad.sigmoid(Tensor([-30.0, 0.0, 30.0])).data
    assert (x > 0).all() and (x < 1).all()


def test_relu_keeps_finite_values_bitwise_and_passes_nan():
    """On non-NaN inputs relu is bitwise `where(x > 0, x, 0.0)`, ±0 giving
    +0.0; a NaN passes through, and its gradient is 0."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=1000), [0.0, -0.0, np.inf, -np.inf, 5e-324,
                                                -5e-324, 1e308, -1e308]])
    out = ad.relu(Tensor(x)).data
    assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert not np.signbit(out[x == 0]).any()
    t = Tensor([np.nan, 2.0, -3.0, -0.0], requires_grad=True)
    y = ad.relu(t)
    assert np.isnan(y.data[0]) and y.data[1:].tolist() == [2.0, 0.0, 0.0]
    assert not np.signbit(y.data[3])
    ad.backward(ad.tensor_sum(ad.mul(y, Tensor([0.0, 1.0, 1.0, 1.0]))))
    assert t.grad.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    ad.backward(ad.mul(x, x))
    assert float(x.grad) == pytest.approx(6.0, abs=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        ad.backward(ad.relu(x))


def test_backward_crossentropy_softmax_identity():
    # The softmax Jacobian is d p_k / dz = p_k (onehot(k) - p), so
    # d(-log p_k)/dz = -(d p_k / dz) / p_k == softmax(z) - onehot(k).
    z = Tensor([0.4, -1.1, 2.3, 0.0], requires_grad=True)
    k = 2
    p = ad.softmax(z)
    ad.backward(ad.tensor_sum(ad.take(p, [k])))
    onehot = np.eye(4)[k]
    assert np.abs(z.grad - p.data[k] * (onehot - p.data)).max() < 1e-15
    assert np.abs(-z.grad / p.data[k] - (p.data - onehot)).max() < 1e-10


def test_backward_two_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    w2 = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    x = rng.uniform(-1, 1, (3, 4))

    def forward():
        h = ad.relu(ad.matmul(Tensor(x), w1))
        return ad.tensor_sum(ad.matmul(h, w2))

    grads = ad.grad_map(forward(), {"w1": w1, "w2": w2})
    for name, t in (("w1", w1), ("w2", w2)):
        def f(arr):
            return float(forward().data)
        fd = finite_difference_grad(f, t.data, 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert (np.abs(fd - grads[name]) / denom).max() < 1e-5


def test_unreached_parameters_get_zero_gradients():
    used = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([[3.0, 4.0]], requires_grad=True)
    grads = ad.grad_map(ad.tensor_sum(ad.mul(used, used)),
                        {"used": used, "unused": unused})
    assert np.array_equal(grads["unused"], np.zeros((1, 2)))
    assert np.allclose(grads["used"], [2.0, 4.0])


def test_finite_difference_trivials():
    assert finite_difference_grad(lambda a: float(a ** 2), np.array(3.0),
                                  1e-4) == pytest.approx(6.0, abs=1e-6)
    assert np.array_equal(
        finite_difference_grad(lambda a: 1.23, np.ones(4), 1e-5), np.zeros(4))
    g = finite_difference_grad(lambda a: float((1.0 / (1.0 + np.exp(-a))).sum()),
                               np.zeros(3), 1e-5)
    assert np.abs(g - 0.25).max() < 1e-6


def test_finite_difference_needs_positive_step():
    with pytest.raises(UsageError):
        finite_difference_grad(lambda a: 0.0, np.ones(2), 0.0)


def test_take_duplicate_indices_accumulate():
    e = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.take(e, [1, 1, 3])))
    assert np.array_equal(e.grad[1], [2.0, 2.0, 2.0])
    assert np.array_equal(e.grad[3], [1.0, 1.0, 1.0])
    assert np.array_equal(e.grad[0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("table_shape, idx_shape", [
    ((7, 3), (12,)), ((7, 3), (4, 5)), ((7, 3), (2, 3, 4)), ((5, 2, 3), (3, 4)),
    ((9,), (3, 6))])
@pytest.mark.parametrize("existing", [False, True])
def test_take_scatter_is_bitwise_np_add_at(table_shape, idx_shape, existing):
    """take's vjp scatters elements through one flat index, yet every
    entry gets exactly what np.add.at over rows gives: the same addends
    in the same order, duplicates, -0.0 and inf included.  An entry is NaN
    in both or neither; when two NaNs meet, which one's sign survives
    depends on the operand order numpy's loop uses, so NaN bits are not
    compared."""
    rng = np.random.default_rng(sum(table_shape) + len(idx_shape))
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e-320])
    for _ in range(20):
        idx = rng.integers(0, table_shape[0], size=idx_shape)   # duplicates
        g = rng.standard_normal(idx_shape + table_shape[1:])
        g.flat[rng.integers(0, g.size, size=g.size // 3)] = rng.choice(
            special, size=g.size // 3)
        x = Tensor(rng.standard_normal(table_shape), requires_grad=True)
        expect = np.zeros(table_shape)
        if existing:
            x.grad = rng.choice(special, size=table_shape) + rng.standard_normal(table_shape)
            expect = x.grad.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(expect, idx, g)
            ad.take(x, idx)._vjp(g)
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(x.grad), nan)
        assert x.grad[~nan].tobytes() == expect[~nan].tobytes()


def test_first_gradient_is_copied_not_aliased():
    """A node's first gradient is a copy: writing to the array handed in,
    or to another node's gradient it came from, leaves it unchanged."""
    t = Tensor(np.zeros(3), requires_grad=True)
    g = np.array([1.0, -0.0, 2.0])
    ad._accum(t, g)
    g[:] = 7.0
    assert t.grad.tobytes() == np.array([1.0, -0.0, 2.0]).tobytes()
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    r = ad.reshape(x, (3, 2))
    ad.backward(ad.tensor_sum(r))
    assert not np.shares_memory(x.grad, r.grad)
    r.grad += 5.0
    assert np.array_equal(x.grad, np.ones((2, 3)))


def _adam_oracle(data, m, v, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam update, one parameter at a time."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name in data:
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        data[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


def test_flat_adam_is_bitwise_the_per_array_update():
    """Five flat-buffer Adam steps on parameters of mixed shapes, with
    some gradients zero (as `grad_map` gives a parameter the loss does not
    reach), equal the per-array update."""
    rng = np.random.default_rng(23)
    shapes = {"s": (), "v": (5,), "w": (3, 4), "t": (2, 3, 2), "z": (4,), "gone": (2, 2)}
    params = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    data = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = init_adam(params)
    for t in range(1, 6):
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-8, 4)
                 for k, s in shapes.items()}
        grads["z"] = np.zeros(4)
        grads["gone"] = np.zeros((2, 2))
        if t % 2:
            grads["v"] = np.zeros(5)
        adam_step(params, grads, state, lr=0.01)
        _adam_oracle(data, m, v, grads, t, lr=0.01)
        offset = 0
        for k in shapes:
            size = params[k].data.size
            assert params[k].data.tobytes() == data[k].tobytes()
            assert state.moments[0, offset:offset + size].tobytes() == m[k].tobytes()
            assert state.moments[1, offset:offset + size].tobytes() == v[k].tobytes()
            offset += size


def test_concat_and_stack_gradients():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    ad.backward(ad.tensor_sum(ad.mul(ad.concat([a, b]), Tensor([1.0, 2.0, 3.0]))))
    assert np.array_equal(a.grad, [1.0, 2.0])
    assert np.array_equal(b.grad, [3.0])

    c = Tensor([1.0, 1.0], requires_grad=True)
    d = Tensor([2.0, 2.0], requires_grad=True)
    ad.backward(ad.tensor_sum(ad.mul(ad.stack([c, d]),
                                     Tensor([[1.0, 2.0], [3.0, 4.0]]))))
    assert np.array_equal(c.grad, [1.0, 2.0])
    assert np.array_equal(d.grad, [3.0, 4.0])


def test_matmul_shapes_and_errors():
    m = Tensor(np.arange(6.0).reshape(2, 3))
    v = Tensor([1.0, 1.0, 1.0])
    assert ad.matmul(m, v).data.shape == (2,)
    assert ad.matmul(v, Tensor(m.data.T)).data.shape == (2,)
    assert ad.matmul(v, v).data.shape == ()
    assert ad.matmul(m, Tensor(m.data.T)).data.shape == (2, 2)
    assert ad.matmul(Tensor(np.zeros((4, 2, 3))),
                     Tensor(np.zeros((4, 3, 1)))).data.shape == (4, 2, 1)
    # stacks broadcast their leading axes
    assert ad.matmul(Tensor(np.zeros((4, 1, 2, 3))),
                     Tensor(np.zeros((4, 5, 3, 1)))).data.shape == (4, 5, 2, 1)
    with pytest.raises(UsageError):
        ad.matmul(m, m)
    with pytest.raises(UsageError):  # a stack needs a stack on the other side
        ad.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(m.data.T))
    with pytest.raises(UsageError):
        ad.matmul(Tensor(np.zeros((2, 2, 3))), m)
    with pytest.raises(UsageError):  # leading axes 2 and 3 do not broadcast
        ad.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 1))))


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,)),
    ((5, 3, 4), (5, 4, 2)),
    ((2, 1, 3, 4), (2, 3, 4, 2)),   # (G, 1, c, d) @ (G, R, d, w)
    ((1, 3, 4), (2, 1, 4, 2)),      # both sides broadcast
    ((3, 3, 4), (1, 4, 2)),
])
def test_matmul_gradients_match_finite_differences(shape_a, shape_b):
    rng = np.random.default_rng(21)
    a = Tensor(rng.uniform(-1, 1, shape_a), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, shape_b), requires_grad=True)

    def forward():
        return ad.tensor_sum(ad.sigmoid(ad.matmul(a, b)))

    grads = ad.grad_map(forward(), {"a": a, "b": b})
    for name, t in (("a", a), ("b", b)):
        def f(arr):
            return float(forward().data)
        fd = finite_difference_grad(f, t.data, 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert (np.abs(fd - grads[name]) / denom).max() < 1e-6, name


def test_swapaxes_transposes_the_last_two_axes():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    y = ad.swapaxes(x)
    assert np.array_equal(y.data, np.transpose(x.data, (0, 2, 1)))
    with pytest.raises(UsageError):
        ad.swapaxes(Tensor([1.0, 2.0]))
    weights = Tensor(rng.uniform(-1, 1, (2, 4, 3)))

    def forward():
        return ad.tensor_sum(ad.sigmoid(ad.mul(weights, ad.swapaxes(x))))

    grad = ad.grad_map(forward(), {"x": x})["x"]

    def f(arr):
        return float(forward().data)
    fd = finite_difference_grad(f, x.data, 1e-5)
    assert np.abs(fd - grad).max() < 1e-8


def test_scalar_broadcast_add_mul():
    w = Tensor(2.0, requires_grad=True)
    v = Tensor([1.0, 2.0, 3.0])
    out = ad.add(ad.mul(w, v), Tensor(1.0))
    assert np.array_equal(out.data, [3.0, 5.0, 7.0])
    ad.backward(ad.tensor_sum(out))
    assert float(w.grad) == 6.0
    for op in (ad.add, ad.mul):
        with pytest.raises(UsageError):
            op(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(UsageError):
            op(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3))))


@pytest.mark.parametrize("shape_a,shape_b", [
    ((4, 3), (3,)),          # (n, d) + (d,)
    ((4, 1, 3), (4, 5, 3)),  # (n, 1, d) * (n, w, d)
    ((), (4, 3)),            # scalar forms
    ((2, 3), ()),
    ((3, 1, 2), (1, 4, 2)),  # both sides broadcast
])
def test_broadcast_add_mul_gradients_match_finite_differences(shape_a, shape_b):
    rng = np.random.default_rng(13)
    a = Tensor(rng.uniform(-1, 1, shape_a), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, shape_b), requires_grad=True)
    out_shape = np.broadcast_shapes(shape_a, shape_b)
    weights = Tensor(rng.uniform(-1, 1, out_shape))

    def forward():
        # a nonlinear composite so the mul gradient depends on both sides
        return ad.tensor_sum(ad.mul(weights, ad.mul(ad.add(a, b), ad.sigmoid(ad.mul(a, b)))))

    grads = ad.grad_map(forward(), {"a": a, "b": b})
    for name, t in (("a", a), ("b", b)):
        assert grads[name].shape == t.data.shape

        def f(arr):
            return float(forward().data)
        fd = finite_difference_grad(f, t.data, 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert (np.abs(fd - grads[name]) / denom).max() < 1e-6, name


def test_logsigmoid_matches_log_of_sigmoid():
    x = np.array([-20.0, -1.0, 0.0, 2.5, 20.0])
    out = ad.logsigmoid(Tensor(x)).data
    assert np.abs(out - np.log(1.0 / (1.0 + np.exp(-x)))).max() < 1e-12


def test_gradient_check_property_random_composites():
    """Composites of the primitive set on inputs in [-1, 1] pass a
    central-difference check at h=1e-5 within 1e-4 relative error."""
    rng = np.random.default_rng(11)
    for trial in range(5):
        w1 = Tensor(rng.uniform(-1, 1, (5, 5)), requires_grad=True)
        w2 = Tensor(rng.uniform(-1, 1, (5,)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, ()), requires_grad=True)
        x = rng.uniform(-1, 1, (4, 5))

        def forward():
            h = ad.sigmoid(ad.matmul(Tensor(x), w1))
            s = ad.softmax(h, axis=-1)
            v = ad.matmul(s, w2)
            return ad.tensor_mean(ad.relu(ad.add(v, b)))

        params = {"w1": w1, "w2": w2, "b": b}
        for p in params.values():
            p.grad = None
        grads = ad.grad_map(forward(), params)
        for name, t in params.items():
            def f(arr):
                return float(forward().data)
            fd = finite_difference_grad(f, t.data, 1e-5)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
            assert (np.abs(fd - grads[name]) / denom).max() < 1e-4


def test_deterministic_reexecution_is_bitwise_identical():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, (6, 6))
    x = rng.uniform(-1, 1, (6,))

    def run():
        t = Tensor(w, requires_grad=True)
        out = ad.tensor_sum(ad.softmax(ad.matmul(ad.relu(t), Tensor(x))))
        ad.backward(out)
        return out.data.copy(), t.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2)
    assert np.array_equal(g1, g2)


def test_trace_is_topological():
    x = Tensor(1.0, requires_grad=True)
    y = ad.mul(x, x)
    z = ad.add(y, x)
    order = ad.trace(z)
    pos = {id(t): i for i, t in enumerate(order)}
    for node in order:
        for inp in node.inputs:
            assert pos[id(inp)] < pos[id(node)]


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.uniform(-100, 100, size=8)
        outs = [ad.softmax(Tensor(v)).data, ad.sigmoid(Tensor(v)).data,
                ad.logsigmoid(Tensor(v)).data, ad.relu(Tensor(v)).data]
        for o in outs:
            assert np.isfinite(o).all()


def test_tape_follows_requires_grad_alone():
    """An op records tape links exactly when some input requires
    gradients: the same op on a constant view of a parameter's array
    records nothing, and the parameter is left as it was."""
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    y = ad.mul(x, x)
    assert y.requires_grad and y.inputs == (x, x)
    view = Tensor(x.data)
    assert view.data is x.data and not view.requires_grad
    z = ad.mul(view, view)
    assert np.array_equal(z.data, y.data)
    assert not z.requires_grad and z.inputs == () and z._vjp is None
    mixed = ad.add(z, x)
    assert mixed.requires_grad and mixed.inputs == (z, x)
    assert x.requires_grad and x.grad is None
