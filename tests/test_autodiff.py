import contextlib
import tracemalloc

import numpy as np
import pytest

from nkf import autodiff as ad

from oracles import add, add_rowvec, clamp, concat, dense_composed, div, \
    lstm_layer_cached, matmul, mul, relu, softplus, sub


def _fd_check(build, arrays, rel=1e-6, step=1e-5, seed=0):
    """Compare analytic gradients of sum-like scalar against central FD.

    ``build`` maps a list of DiffArray leaves to a scalar DiffArray; the
    loss is made scalar by mean_square against a fixed random target so the
    incoming gradient is nontrivial.
    """
    rng = np.random.default_rng(seed)
    leaves = [ad.DiffArray(a.copy()) for a in arrays]
    out = build(leaves)
    target = ad.DiffArray(rng.standard_normal(out.shape))
    loss = ad.mean_square(out, target)
    loss.backward()
    analytic = [leaf.grad.copy() if leaf.grad is not None
                else np.zeros_like(leaf.values) for leaf in leaves]

    def loss_value():
        with ad.no_grad():
            vals = build([ad.DiffArray(leaf.values) for leaf in leaves])
            return float(ad.mean_square(vals, target).values)

    for leaf, grad in zip(leaves, analytic):
        flat = leaf.values.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up = loss_value()
            flat[i] = saved - step
            down = loss_value()
            flat[i] = saved
            numeric = (up - down) / (2 * step)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            assert abs(gflat[i] - numeric) / denom < rel, \
                f"gradient mismatch: analytic {gflat[i]}, numeric {numeric}"


class TestElementwiseGradients:
    def test_add_sub_mul_div(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.5, 2.0, (3, 4))
        b = rng.uniform(0.5, 2.0, (3, 4))
        _fd_check(lambda xs: add(xs[0], xs[1]), [a, b])
        _fd_check(lambda xs: sub(xs[0], xs[1]), [a, b])
        _fd_check(lambda xs: mul(xs[0], xs[1]), [a, b])
        _fd_check(lambda xs: div(xs[0], xs[1]), [a, b])

    def test_zero_d_operand_only_as_constant(self):
        # a lifted scalar meets an array and takes no gradient; a 0-d node
        # that could take one is rejected when the graph is built
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 2.0, (4,))
        _fd_check(lambda xs: mul(xs[0], 1.5), [a])
        _fd_check(lambda xs: sub(1.5, xs[0]), [a])
        x, c = ad.DiffArray(a), ad.DiffArray(np.array(1.5))
        for op in (add, sub, mul, div):
            with pytest.raises(ValueError, match="do not match"):
                op(x, c)
            with pytest.raises(ValueError, match="do not match"):
                op(c, x)

    def test_activations(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.0, 2.0, (5,))
        for op in (ad.exp, softplus):
            _fd_check(lambda xs, op=op: op(xs[0]), [x])

    def test_relu_away_from_kink(self):
        x = np.array([-1.5, -0.3, 0.2, 2.0])
        _fd_check(lambda xs: relu(xs[0]), [x])

    def test_clamp_interior_and_exterior(self):
        x = np.array([-3.0, -0.5, 0.5, 3.0])
        _fd_check(lambda xs: clamp(xs[0], -1.0, 1.0), [x])

    def test_clamp_zero_gradient_outside(self):
        x = ad.DiffArray(np.array([-5.0, 0.0, 5.0]))
        y = clamp(x, -1.0, 1.0)
        ad.mean_square(y, ad.DiffArray(np.zeros(3))).backward()
        assert x.grad[0] == 0.0 and x.grad[2] == 0.0
        # the midpoint is inside the pass-through region but its value is the
        # target, so only the endpoints are informative here
        np.testing.assert_array_equal(y.values, [-1.0, 0.0, 1.0])


class TestMatmulGradients:
    def test_2d_2d(self):
        rng = np.random.default_rng(4)
        _fd_check(lambda xs: matmul(xs[0], xs[1]),
                  [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])

    def test_3d_2d(self):
        rng = np.random.default_rng(19)
        _fd_check(lambda xs: matmul(xs[0], xs[1]),
                  [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2))])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            matmul(ad.DiffArray(np.ones((2, 3))), ad.DiffArray(np.ones((2, 3))))
        for a, b in (((2, 3), (3,)), ((3,), (3, 2)), ((2, 3), (1, 3, 2))):
            with pytest.raises(ValueError, match="2-D or 3-D @ 2-D"):
                matmul(ad.DiffArray(np.ones(a)), ad.DiffArray(np.ones(b)))
        with pytest.raises(ValueError):
            add(ad.DiffArray(np.ones((2, 3))), ad.DiffArray(np.ones((3, 2))))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


#: the noise net's and heads' activations with their arguments
DENSE_ACTS = [("relu", {}), ("clamp", {"limit": 12.0}), ("softplus", {"floor": 1e-12})]


class TestDense:
    """``dense`` against the chain it replaced (``oracles.dense_composed``):
    value and every gradient bit for bit."""

    @staticmethod
    def _run(op, x, w, b, act, kw, x_constant):
        leaves = [ad.lift(x) if x_constant else ad.DiffArray(x.copy()),
                  ad.DiffArray(w.copy()), ad.DiffArray(b.copy())]
        with np.errstate(all="ignore"):   # the NaN and infinite rows
            out = op(*leaves, act, **kw)
            target = np.random.default_rng(1).standard_normal(out.shape)
            ad.mean_square(out, ad.lift(target)).backward()
        return [out.values] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("act,kw", DENSE_ACTS)
    @pytest.mark.parametrize("x_constant", [False, True])
    @pytest.mark.parametrize("x_shape,k", [((6, 3), 4), ((2, 7, 5), 3), ((300, 17), 9),
                                           ((3, 64, 16), 129), ((1, 1, 2), 1)])
    def test_bit_identical_to_composed_chain(self, act, kw, x_constant, x_shape, k):
        rng = np.random.default_rng(sum(x_shape) + k)
        x = rng.standard_normal(x_shape) * 8.0
        w = rng.standard_normal((x_shape[-1], k))
        b = rng.standard_normal(k)
        rows = x.reshape(-1, x_shape[-1])
        if len(rows) >= 4:
            # a zero row makes z = b: exactly 0, 12 and -12 where b is
            b[:3] = [0.0, 12.0, -12.0][:k]
            rows[0] = 0.0
            rows[1, 0], rows[2, 0], rows[3, 0] = np.nan, np.inf, -np.inf
        got = self._run(ad.dense, x, w, b, act, kw, x_constant)
        want = self._run(dense_composed, x, w, b, act, kw, x_constant)
        assert (got[1] is None) == x_constant
        for name, a, c in zip(("value", "x", "w", "b"), got, want):
            if a is None:
                assert c is None, name
            else:
                assert a.shape == c.shape and np.array_equal(_bits(a), _bits(c)), name

    def test_exact_kinks(self):
        # ReLU passes no gradient at z = 0; the clamp passes it at z = +-12
        x = ad.lift(np.zeros((1, 2)))
        w = ad.DiffArray(np.ones((2, 3)))
        for act, kw, b, passed in (("relu", {}, [0.0, 1.0, -1.0], [0.0, 1.0, 0.0]),
                                   ("clamp", {"limit": 12.0}, [12.0, -12.0, 12.5],
                                    [1.0, 1.0, 0.0])):
            bias = ad.DiffArray(np.array(b))
            out = ad.dense(x, w, bias, act, **kw)
            ad.mean_square(out, ad.lift(out.values - 1.0)).backward()
            np.testing.assert_array_equal(bias.grad, np.array(passed) * 2.0 / 3)

    @pytest.mark.parametrize("act,kw,extra", [("relu", {}, 0.0), ("clamp", {"limit": 1.0}, 1 / 8),
                                              ("softplus", {}, 1.0)])
    def test_keeps_derivative_only_when_recording(self, act, kw, extra):
        # the output is the node's one array under no_grad; recording keeps
        # clamp's bool mask or softplus's derivative besides it
        rng = np.random.default_rng(2)
        x, w, b = rng.standard_normal((512, 64)), rng.standard_normal((64, 256)), \
            rng.standard_normal(256)
        size = 512 * 256 * 8
        for recording in (False, True):
            with contextlib.nullcontext() if recording else ad.no_grad():
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    out = ad.dense(x, w, b, act, **kw)
                    kept = tracemalloc.get_traced_memory()[0] - base
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            assert (out._backward is not None) == recording
            want = 1.0 + (extra if recording else 0.0)
            assert want * size <= kept < (want + 0.01) * size, (recording, kept / size)
            if not recording:   # matmul takes a 64 KiB buffer for a moment
                assert peak < 1.1 * size, peak / size
            del out

    def test_shape_and_activation_errors(self):
        x, w, b = ad.lift(np.ones((2, 3))), ad.lift(np.ones((3, 4))), ad.lift(np.ones(4))
        for args in ((ad.lift(np.ones(3)), w, b), (x, ad.lift(np.ones((2, 4))), b),
                     (x, w, ad.lift(np.ones(3))), (ad.lift(np.ones((1, 2, 2, 3))), w, b)):
            with pytest.raises(ValueError, match="dense: shapes"):
                ad.dense(*args, "relu")
        with pytest.raises(ValueError, match="unknown activation"):
            ad.dense(x, w, b, "tanh")


class TestShapeOps:
    def test_slicing(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        _fd_check(lambda xs: xs[0][2], [x])
        _fd_check(lambda xs: xs[0][1:4, 2], [x])

    def test_overlapping_slices_accumulate(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(6)
        _fd_check(lambda xs: add(xs[0][0:4], xs[0][2:6]), [x])

    def test_concat(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(3), rng.standard_normal(5)
        _fd_check(lambda xs: concat([xs[0], xs[1]]), [a, b])

    def test_concat_axis1(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 2))
        _fd_check(lambda xs: concat([xs[0], xs[1]], axis=1), [a, b])

    def test_add_rowvec_batched(self):
        rng = np.random.default_rng(18)
        _fd_check(lambda xs: add_rowvec(xs[0], xs[1]),
                  [rng.standard_normal((2, 4, 3)), rng.standard_normal(3)])

    def test_add_rowvec(self):
        rng = np.random.default_rng(13)
        _fd_check(lambda xs: add_rowvec(xs[0], xs[1]),
                  [rng.standard_normal((4, 3)), rng.standard_normal(3)])


class TestLstmLayer:
    def test_gradients_against_fd(self):
        # two sequences of 5 frames, 3 inputs, 2 units; every operand differentiable
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 8)) * 0.5,
                  rng.standard_normal((2, 8)) * 0.5, rng.standard_normal(8) * 0.5]
        _fd_check(lambda xs: ad.lstm_layer(*xs)[0], arrays)

    def test_no_grad_matches_recorded_forward(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 6, 2))
        w = [rng.standard_normal(s) for s in ((2, 12), (3, 12), (12,))]
        recorded, _ = ad.lstm_layer(x, *w)
        with ad.no_grad():
            plain, _ = ad.lstm_layer(x, *w)
        assert plain._parents == ()
        np.testing.assert_array_equal(plain.values, recorded.values)

    @staticmethod
    def _stack(layer, x, weights, grad):
        """Output of stacked layers and, when recording, the gradients of x
        and of every layer's wx, wh and b."""
        leaves = [ad.DiffArray(x)] + [ad.DiffArray(w) for w in weights]
        with contextlib.nullcontext() if grad else ad.no_grad():
            out = leaves[0]
            for j in range(0, len(weights), 3):
                out = layer(out, *leaves[1 + j:4 + j])
        if not grad:
            assert out._parents == ()
            return [out.values]
        target = np.random.default_rng(0).standard_normal(out.shape)
        ad.mean_square(out, ad.lift(target)).backward()
        return [out.values] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("n_b, n_t, units", [
        (1, 12, (3,)), (2, 9, (5,)), (3, 17, (6, 4)), (2, 2, (4, 4, 2))])
    def test_bit_identical_to_cached_oracle(self, n_b, n_t, units, grad):
        # a stacked layer reads the strided view hs[:, 1:] of the one below
        rng = np.random.default_rng(19)
        weights, n_in = [], 7
        for u in units:
            weights += [rng.standard_normal(s) * 0.5
                        for s in ((n_in, 4 * u), (u, 4 * u), (4 * u,))]
            n_in = u
        x = rng.standard_normal((n_b, n_t, 7))
        got = self._stack(lambda *a: ad.lstm_layer(*a)[0], x, weights, grad)
        want = self._stack(lstm_layer_cached, x, weights, grad)
        assert len(got) == len(want) == (2 + len(weights) if grad else 1)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_memory_within_three_gate_caches(self):
        # the forward peak stays within 2x the B x T x 4U gate cache and the
        # backward transient above the state forward leaves within 2x, as
        # BPTT writes its gate gradients over the cache; full-size copies of
        # the gates, the states or the weights beside them would exceed that
        n_b, n_t, u, n_in = 2, 128, 256, 129
        rng = np.random.default_rng(23)
        x, wx, wh, b = (ad.DiffArray(rng.standard_normal(s) * 0.1) for s in
                        ((n_b, n_t, n_in), (n_in, 4 * u), (u, 4 * u), (4 * u,)))
        g = rng.standard_normal((n_b, n_t, u))
        cache = n_b * n_t * 4 * u * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, _ = ad.lstm_layer(x, wx, wh, b)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= 2.0 * cache, forward_peak / cache
        assert backward_peak <= 2.0 * cache, backward_peak / cache

    def test_second_backward_through_a_spent_graph_raises(self):
        # the first backward wrote its gate gradients over the gate cache
        rng = np.random.default_rng(29)
        x, wx, wh, b = (ad.DiffArray(rng.standard_normal(s) * 0.5) for s in
                        ((2, 4, 3), (3, 8), (2, 8), (8,)))
        loss = ad.mean_square(ad.lstm_layer(x, wx, wh, b)[0],
                              ad.lift(np.zeros((2, 4, 2))))
        loss.backward()
        first = wx.grad.copy()
        with pytest.raises(RuntimeError, match="second backward"):
            loss.backward()
        # a new graph over the same leaves still accumulates
        ad.mean_square(ad.lstm_layer(x, wx, wh, b)[0],
                       ad.lift(np.zeros((2, 4, 2)))).backward()
        np.testing.assert_allclose(wx.grad, 2 * first, rtol=1e-15)


class TestMeanSquare:
    def test_identical_inputs_zero_loss_zero_gradient(self):
        x = ad.DiffArray(np.array([1.0, 2.0, 3.0]))
        loss = ad.mean_square(x, x)
        assert loss.values == 0.0
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_gradient_against_fd(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        x = ad.DiffArray(a)
        y = ad.DiffArray(b)
        ad.mean_square(x, y).backward()
        np.testing.assert_allclose(x.grad, 2 * (a - b) / 9, rtol=1e-12)
        np.testing.assert_allclose(y.grad, -2 * (a - b) / 9, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.mean_square(ad.DiffArray(np.ones(3)), ad.DiffArray(np.ones(4)))


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # y = x*x + x: dy/dx = 2x + 1
        x = ad.DiffArray(np.array(3.0))
        y = add(mul(x, x), x)
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_gradients_accumulate_across_backward_calls(self):
        x = ad.DiffArray(np.array(2.0))
        mul(x, x).backward()
        first = float(x.grad)
        mul(x, x).backward()
        assert float(x.grad) == pytest.approx(2 * first)

    def test_leaf_reached_twice_through_add_owns_its_gradient(self):
        # add hands both operands its own gradient; each leaf must copy it
        rng = np.random.default_rng(3)
        x = ad.DiffArray(rng.standard_normal((3, 2)))
        z = ad.DiffArray(rng.standard_normal((3, 2)))
        target = rng.standard_normal((3, 2))
        y = add(add(x, z), x)          # 2x + z
        ad.mean_square(y, ad.lift(target)).backward()
        g = 2.0 * (y.values - target) / 6
        np.testing.assert_allclose(x.grad, 2 * g, rtol=1e-15)
        np.testing.assert_allclose(z.grad, g, rtol=1e-15)
        assert not np.shares_memory(x.grad, z.grad)

    def test_fresh_first_contribution_becomes_the_buffer(self):
        # matmul's weight gradient is made for w alone: it is kept, not added
        # into a zeroed copy, and a second backward adds into that buffer
        rng = np.random.default_rng(5)
        w = ad.DiffArray(rng.standard_normal((512, 512)))
        x = ad.lift(rng.standard_normal((8, 512)))

        def loss():
            return ad.mean_square(matmul(x, w), ad.lift(np.zeros((8, 512))))

        first_loss = loss()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            first_loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.values.nbytes
        first = w.grad
        want = 2 * first
        loss().backward()
        assert w.grad is first
        np.testing.assert_array_equal(w.grad, want)

    @pytest.mark.parametrize("op", ["dense", "lstm_layer"])
    def test_zeroed_grad_takes_the_weight_product_in_place(self, op):
        # weights whose grads hold zero_grad's zeros (zeroed, as a model
        # parameter's after NkfModel.zero_grad) take their gradients'
        # products straight: their own arrays, the products' bits and no
        # product-sized temporary; a second backward adds, as for any grad
        rng = np.random.default_rng(23)
        x = ad.lift(rng.standard_normal((2, 16, 256)))
        shapes = [(256, 512)] if op == "dense" else [(256, 512), (128, 512)]
        values = [rng.uniform(-0.1, 0.1, shape) for shape in shapes]

        def loss(ws):
            b = ad.lift(np.zeros(512))
            out = ad.dense(x, *ws, b, "relu") if op == "dense" else ad.lstm_layer(x, *ws, b)[0]
            return ad.mean_square(out, ad.lift(np.full(out.shape, 0.25)))

        want = [ad.DiffArray(v) for v in values]
        loss(want).backward()
        ws, homes = [ad.DiffArray(v) for v in values], [np.zeros(v.shape) for v in values]
        for w, home in zip(ws, homes):
            w.grad, w.zeroed = home, True
        graph = loss(ws)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        for w, home, v in zip(ws, homes, want):
            assert w.grad is home and not w.zeroed
            assert np.array_equal(home, v.grad)
        assert peak < min(home.nbytes for home in homes), peak
        loss(ws).backward()
        for w, home, v in zip(ws, homes, want):
            assert w.grad is home
            np.testing.assert_array_equal(home, 2 * v.grad)

    @pytest.mark.parametrize("first", ["accumulate", "slice"])
    def test_any_contribution_clears_zeroed(self, first):
        # after a contribution through _accumulate or a slice, a product adds
        # to the grad instead of overwriting it
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal((2, 3, 3))
        w = ad.DiffArray(np.zeros((3, 3)))
        w.grad, w.zeroed = np.zeros((3, 3)), True
        if first == "accumulate":
            w._accumulate(np.ones((3, 3)))
        else:
            ad.mean_square(w[1:], ad.lift(np.full((2, 3), -1.5))).backward()
        assert not w.zeroed
        before = w.grad.copy()
        ad.add_product(w, a, b)
        np.testing.assert_array_equal(w.grad, before + a @ b)

    def test_backward_from_nonscalar_rejected(self):
        x = ad.DiffArray(np.ones(3))
        with pytest.raises(ValueError):
            add(x, x).backward()

    def test_constants_get_no_gradient_and_inner_buffers_are_released(self):
        rng = np.random.default_rng(21)
        w = ad.DiffArray(rng.standard_normal((4, 2)))
        x = ad.lift(rng.standard_normal((3, 4)))
        h = matmul(x, w)
        ad.mean_square(h, ad.lift(np.zeros((3, 2)))).backward()
        assert x.constant and x.grad is None
        assert h.grad is None
        np.testing.assert_allclose(w.grad, x.values.T @ (2 * h.values / 6), rtol=1e-12)

    def test_sliced_constant_gets_no_gradient(self):
        c = ad.lift(np.ones(4))
        ad.mean_square(add(c[:2], ad.DiffArray(np.ones(2))),
                       ad.lift(np.zeros(2))).backward()
        assert c.grad is None

    def test_no_grad_mode_records_nothing(self):
        x = ad.DiffArray(np.array([1.0, 2.0]))
        with ad.no_grad():
            y = mul(x, x)
        assert y._parents == ()
        np.testing.assert_array_equal(y.values, [1.0, 4.0])

    def test_deep_chain_does_not_recurse(self):
        # deeper than the default python recursion limit
        x = ad.DiffArray(np.array(1.0))
        y = x
        for _ in range(5000):
            y = add(y, x)
        y.backward()
        assert x.grad == pytest.approx(5001.0)

    def test_values_are_float64(self):
        x = ad.DiffArray(np.ones(3, dtype=np.float32))
        assert x.values.dtype == np.float64
