"""MLP forward/backward, SGD, evaluation, and checkpoint round-trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill import model
from rectidistill.data import Dataset
from rectidistill.errors import InvalidInputError
from rectidistill.numerics import log_softmax_rows

from finite_differences import finite_difference_gradient


def naive_forward(params, x):
    """Triple-loop reference forward pass."""
    h = list(x)
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for r in range(w.shape[0]):
            acc = b[r]
            for c in range(w.shape[1]):
                acc += w[r][c] * h[c]
            if li < len(params.weights) - 1:
                acc = max(acc, 0.0)
            out.append(acc)
        h = out
    return np.array(h)


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = model.init([2, 4, 3], seed=9)
        b = model.init([2, 4, 3], seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        p = model.init([2, 4, 3], seed=0)
        assert [w.shape for w in p.weights] == [(4, 2), (3, 4)]
        assert [b.shape for b in p.biases] == [(4,), (3,)]
        assert p.dims == [2, 4, 3]

    def test_glorot_bound_holds_over_many_draws(self):
        p = model.init([10, 100, 10], seed=3)  # 1000 + 1000 weights
        for w in p.weights:
            fan_out, fan_in = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)

    def test_biases_start_at_zero(self):
        p = model.init([3, 5, 2], seed=1)
        for b in p.biases:
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        p = model.init([2, 4, 3], seed=0)
        for w in p.weights:
            w[:] = 0.0
        np.testing.assert_array_equal(model.forward(p, np.array([[1.0, 2.0]])), np.zeros((1, 3)))

    def test_identity_single_layer(self):
        p = model.MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(model.forward(p, x), x)

    def test_matches_naive_oracle(self):
        p = model.init([3, 5, 4], seed=11)
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.normal(size=(1, 3))
            np.testing.assert_allclose(model.forward(p, x)[0], naive_forward(p, x[0]), atol=1e-12)

    def test_batch_agrees_with_single(self):
        p = model.init([2, 6, 3], seed=4)
        x = np.random.default_rng(5).normal(size=(7, 2))
        batch = model.forward(p, x)
        for i in range(7):
            # BLAS may pick different kernels for 7-row vs 1-row matmuls
            np.testing.assert_allclose(batch[i], model.forward(p, x[i : i + 1])[0], atol=1e-12)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        p = model.init([2, 4, 3], seed=0)
        _, acts = model._forward_cached(p, np.array([[1.0, 2.0]]))
        grads = p.layer_views(np.full_like(p.flat, np.nan))
        model._backward_into(p, grads, np.zeros((1, 3)), acts)
        for gw, gb in grads:
            assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_linear_layer_is_outer_product(self):
        p = model.MlpParams(
            weights=[np.random.default_rng(1).normal(size=(3, 2))], biases=[np.zeros(3)]
        )
        x = np.array([[1.5, -0.5]])
        up = np.array([[0.2, -0.1, 0.7]])
        _, acts = model._forward_cached(p, x)
        grad = np.empty_like(p.flat)
        model._backward_into(p, p.layer_views(grad), up, acts)
        (gw, gb), = p.layer_views(grad)
        np.testing.assert_allclose(gw, np.outer(up, x), atol=1e-15)
        np.testing.assert_allclose(gb, up[0], atol=1e-15)

    def test_full_pipeline_matches_finite_differences(self):
        # CE(softmax) loss through a 2-4-3 net, every parameter checked
        p = model.init([2, 4, 3], seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2))
        y = np.array([0, 2, 1])
        q = model.init([2, 4, 3], seed=7)

        def loss_at(flat):
            q.flat[:] = flat
            logits = model.forward(q, x)
            return sum(
                -np.log(log_softmax_rows(logits[i : i + 1])[1][0, y[i]]) for i in range(3)
            ) / 3.0

        logits, acts = model._forward_cached(p, x)
        probs = np.array([log_softmax_rows(row[None])[1][0] for row in logits])
        upstream = probs.copy()
        upstream[np.arange(3), y] -= 1.0
        analytic = np.empty_like(p.flat)
        model._backward_into(p, p.layer_views(analytic), upstream / 3.0, acts)
        fd = finite_difference_gradient(loss_at, p.flat.copy())
        assert np.max(np.abs(analytic - fd)) <= 1e-5


class TestSgd:
    def test_vanilla_step(self):
        p = model.init([2, 3], seed=0)
        w0 = p.weights[0].copy()
        grad = np.ones_like(p.flat)
        model.sgd_step(p, grad, np.zeros_like(p.flat), lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p.weights[0], w0 - 0.1, atol=1e-15)

    def test_zero_grads_leave_params_unchanged(self):
        p = model.init([2, 3], seed=0)
        w0 = p.weights[0].copy()
        grad = np.zeros_like(p.flat)
        model.sgd_step(p, grad, np.zeros_like(p.flat), lr=0.1, momentum=0.9)
        assert np.array_equal(p.weights[0], w0)

    def test_two_momentum_steps_match_hand_unrolled_recurrence(self):
        p = model.init([2, 2], seed=2)
        w0 = p.weights[0].copy()
        rng = np.random.default_rng(3)
        g1, g2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        vel = np.zeros_like(p.flat)
        # the flat layout is w_1 row by row, then b_1
        model.sgd_step(p, np.concatenate([g1.ravel(), np.zeros(2)]), vel, lr=0.05, momentum=0.9)
        model.sgd_step(p, np.concatenate([g2.ravel(), np.zeros(2)]), vel, lr=0.05, momentum=0.9)
        # v1 = g1; v2 = 0.9*g1 + g2; w = w0 - lr*(v1 + v2)
        expected = w0 - 0.05 * (g1 + 0.9 * g1 + g2)
        np.testing.assert_allclose(p.weights[0], expected, atol=1e-15)


def allocating_forward_cached(weights, biases, x):
    """Oracle: the forward that allocated a temporary per bias add and per ReLU."""
    acts = [x]
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def allocating_backward(weights, upstream, acts):
    """Oracle: the backward that allocated every gradient."""
    grads = [None] * len(weights)
    delta = upstream
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ weights[i]) * (acts[i] > 0.0)
    return grads


def per_layer_sgd_step(weights, biases, grads, velocity, lr, momentum):
    """Oracle: the heavy-ball update run tensor by tensor."""
    for (gw, gb), (vw, vb) in zip(grads, velocity):
        vw *= momentum
        vw += gw
        vb *= momentum
        vb += gb
    for (w, b), (vw, vb) in zip(zip(weights, biases), velocity):
        w -= lr * vw
        b -= lr * vb


def flat(pairs):
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


class TestFlatStep:
    # one row, the training batch of 32, and counts that leave trailing rows
    # to OpenBLAS's edge kernels
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 40), min_size=3, max_size=5),
        rows=st.sampled_from([1, 5, 6, 7, 11, 32, 33]),
        momentum=st.floats(0.0, 1.0, exclude_max=True),
        lr=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_three_steps_are_bit_identical_to_the_allocating_step(
        self, dims, rows, momentum, lr, seed
    ):
        p = model.init(dims, seed=seed)
        weights = [w.copy() for w in p.weights]
        biases = [b.copy() for b in p.biases]
        velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]
        grad = np.empty_like(p.flat)
        grad_views = p.layer_views(grad)
        flat_velocity = np.zeros_like(p.flat)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = rng.normal(size=(rows, dims[0]))
            upstream = rng.normal(size=(rows, dims[-1])) / rows
            # no op writes into an array its caller passed in
            x.flags.writeable = upstream.flags.writeable = False
            want, acts = allocating_forward_cached(weights, biases, x)
            per_layer_sgd_step(weights, biases, allocating_backward(weights, upstream, acts),
                               velocity, lr, momentum)
            logits, acts = model._forward_cached(p, x)
            model._backward_into(p, grad_views, upstream, acts)
            model.sgd_step(p, grad, flat_velocity, lr, momentum)
            assert np.array_equal(logits, want)
            assert np.array_equal(p.flat, flat(zip(weights, biases)))
            assert np.array_equal(flat_velocity, flat(velocity))

    def test_public_backward_matches_the_allocating_backward(self):
        p = model.init([3, 7, 5, 2], seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        upstream = rng.normal(size=(6, 2))
        x.flags.writeable = upstream.flags.writeable = False
        before = p.flat.copy()
        _, acts = model._forward_cached(p, x)
        grads = p.layer_views(np.empty_like(p.flat))
        model._backward_into(p, grads, upstream, acts)
        _, acts = allocating_forward_cached(p.weights, p.biases, x)
        for (gw, gb), (ow, ob) in zip(grads, allocating_backward(p.weights, upstream, acts)):
            assert np.array_equal(gw, ow) and np.array_equal(gb, ob)
        assert np.array_equal(p.flat, before)  # the gradient pass leaves the parameters alone


def shares_flat(p):
    return all(np.shares_memory(a, p.flat) for a in (*p.weights, *p.biases))


class TestFlatLayout:
    def test_init_layers_are_views_of_flat(self):
        p = model.init([2, 5, 3], seed=1)
        assert shares_flat(p)
        assert p.flat.shape == (2 * 5 + 5 + 5 * 3 + 3,)
        p.flat[:] = 7.0
        assert all(np.all(a == 7.0) for a in (*p.weights, *p.biases))

    def test_direct_construction_copies_into_flat(self):
        w, b = np.eye(3), np.arange(3.0)
        p = model.MlpParams(weights=[w], biases=[b])
        assert shares_flat(p)
        assert not np.shares_memory(p.weights[0], w)
        np.testing.assert_array_equal(p.flat, [*w.ravel(), *b])

    def test_load_checkpoint_layers_are_views_of_flat(self, tmp_path):
        model.save_checkpoint(model.init([2, 4, 3], seed=2), tmp_path / "net.ckpt")
        assert shares_flat(model.load_checkpoint(tmp_path / "net.ckpt"))


class TestEvaluate:
    def test_oracle_labels_as_logits(self):
        p = model.MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        feats = np.eye(3)
        acc = model.evaluate(p, Dataset(feats, np.array([0, 1, 2]), 3))
        assert acc == 1.0

    def test_constant_logits_tie_rule(self):
        # ties go to class 0, so accuracy equals the class-0 frequency
        p = model.MlpParams(weights=[np.zeros((4, 2))], biases=[np.zeros(4)])
        feats = np.random.default_rng(0).normal(size=(40, 2))
        labels = np.tile(np.arange(4), 10)
        acc = model.evaluate(p, Dataset(feats, labels, 4))
        assert acc == 0.25

    def test_matches_counting_oracle(self):
        p = model.init([2, 5, 3], seed=6)
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(100, 2))
        labels = rng.integers(0, 3, size=100)
        acc = model.evaluate(p, Dataset(feats, labels, 3))
        logits = model.forward(p, feats)
        hits = sum(1 for i in range(100) if int(np.argmax(logits[i])) == labels[i])
        assert acc == hits / 100

    def test_empty_dataset_raises(self):
        # evaluate takes a Dataset, whose invariant rejects an empty split
        p = model.init([2, 3], seed=0)
        with pytest.raises(InvalidInputError, match="nonempty matrix"):
            model.evaluate(p, Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 3))

    @pytest.mark.parametrize("shape", [(6, 1), (1,), (5,), (7,)])
    def test_label_shape_mismatch_raises(self, shape):
        # labels equal to the argmaxes score 1.0 only in their own (n,) shape
        p = model.MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        feats = np.eye(3)[[0, 1, 2, 0, 1, 2]]
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert model.evaluate(p, Dataset(feats, labels, 3)) == 1.0
        with pytest.raises(InvalidInputError, match="labels length does not match features"):
            model.evaluate(p, Dataset(feats, np.resize(labels, shape), 3))

    def test_chunked_forward_matches_whole_split(self, monkeypatch):
        p = model.init([2, 5, 3], seed=6)
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(103, 2))
        ds = Dataset(feats, rng.integers(0, 3, size=103), 3)
        whole = model.evaluate(p, ds)
        calls = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda q, x: calls.append(len(x)) or forward(q, x))
        monkeypatch.setattr(model, "EVAL_CHUNK_BYTES", 8 * 5 * 10)  # 10 rows of the width-5 layer
        assert model.evaluate(p, ds) == whole
        assert calls == [10] * 10 + [3]

    @pytest.mark.parametrize("dims,n", [([2, 64, 4], 2000), ([32, 256, 100], 5000)])
    def test_peak_memory_stays_within_a_few_chunks(self, dims, n):
        # each layer temporary stays under glibc's mmap threshold, so eval
        # timings do not depend on what an earlier phase allocated
        p = model.init(dims, seed=0)
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(n, dims[0]))
        ds = Dataset(feats, rng.integers(0, dims[-1], size=n), dims[-1])
        tracemalloc.start()
        try:
            model.evaluate(p, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * model.EVAL_CHUNK_BYTES


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        p = model.init([2, 8, 4], seed=13)
        path = tmp_path / "net.ckpt"
        model.save_checkpoint(p, path)
        q = model.load_checkpoint(path)
        for wa, wb in zip(p.weights, q.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(p.biases, q.biases):
            assert np.array_equal(ba, bb)

    def test_round_trip_preserves_evaluation(self, tmp_path):
        p = model.init([2, 8, 4], seed=13)
        ds = Dataset(np.random.default_rng(14).normal(size=(50, 2)),
                     np.random.default_rng(15).integers(0, 4, size=50), 4)
        path = tmp_path / "net.ckpt"
        model.save_checkpoint(p, path)
        q = model.load_checkpoint(path)
        assert model.evaluate(p, ds) == model.evaluate(q, ds)

    def test_save_load_save_is_byte_identical_to_repr_format(self, tmp_path):
        p = model.init([6, 3, 2], seed=13)
        p.weights[0][0] = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, -1.5e-10]
        model.save_checkpoint(p, tmp_path / "a.ckpt")
        model.save_checkpoint(model.load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        # the format save_checkpoint has always written: one repr(float) per value
        rows = ["rectidistill-mlp v1", "layers 2"]
        for w, b in zip(p.weights, p.biases):
            rows.append(f"layer {w.shape[0]} {w.shape[1]}")
            rows += [" ".join(repr(float(v)) for v in r) for r in [*w, b]]
        oracle = "\n".join(rows) + "\n"
        assert (tmp_path / "a.ckpt").read_text() == oracle
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_truncated_file_raises_with_no_partial_model(self, tmp_path):
        p = model.init([2, 8, 4], seed=13)
        path = tmp_path / "net.ckpt"
        model.save_checkpoint(p, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(InvalidInputError,
                           match=":13: layer needs 5 lines, the file has 1 after it$"):
            model.load_checkpoint(path)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        path.write_text(
            "rectidistill-mlp v1\n"
            "layers 1\n"
            "layer 2 2\n"
            "1.5 -2.25\n"
            "0.125 3.0\n"
            "0.5 -0.5\n"
        )
        p = model.load_checkpoint(path)
        np.testing.assert_array_equal(p.weights[0], [[1.5, -2.25], [0.125, 3.0]])
        np.testing.assert_array_equal(p.biases[0], [0.5, -0.5])

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(InvalidInputError, match=":1:"):
            model.load_checkpoint(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(
            "rectidistill-mlp v1\nlayers 1\nlayer 2 2\n1.0 oops\n0.0 0.0\n0.0 0.0\n"
        )
        with pytest.raises(InvalidInputError, match=":4:"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("dims,lineno,message", [
        ("1000000000 1000000", 3, "layer needs 1000000001 lines, the file has 3 after it"),
        ("2 1000000000000", 4, "expected 1000000000000 values, got 2"),
    ])
    def test_huge_layer_dims_fail_on_their_line_without_allocating(
        self, tmp_path, dims, lineno, message
    ):
        path = tmp_path / "huge.ckpt"
        path.write_text(f"rectidistill-mlp v1\nlayers 1\nlayer {dims}\n1.0 2.0\n0.0 0.0\n0.0 0.0\n")
        with pytest.raises(InvalidInputError, match=f":{lineno}: {message}$"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("dims,lineno", [([2, 1], 3), ([2, 3, 1], 8)])
    def test_final_layer_of_one_output_fails_on_its_layer_line(self, tmp_path, dims, lineno):
        # the output width is the class count: 1 would blame the dataset's labels
        path = tmp_path / "one-class.ckpt"
        model.save_checkpoint(model.init(dims, seed=3), path)
        with pytest.raises(InvalidInputError) as exc:
            model.load_checkpoint(path)
        assert str(exc.value) == (
            f"{path}:{lineno}: the final layer needs >= 2 outputs (classes), got 1")

    def test_hidden_layer_of_one_unit_loads(self, tmp_path):
        path = tmp_path / "narrow.ckpt"
        model.save_checkpoint(model.init([2, 1, 3], seed=3), path)
        assert model.load_checkpoint(path).dims == [2, 1, 3]

    def test_layer_count_line_of_three_tokens_reports_line(self, tmp_path):
        # 'layer <out> <in>' is exactly three tokens; 'layers <L>' is exactly two
        path = tmp_path / "bad.ckpt"
        path.write_text("rectidistill-mlp v1\nlayers 1 junk\nlayer 2 2\n"
                        "1.0 2.0\n0.0 0.0\n0.0 0.0\n")
        with pytest.raises(InvalidInputError, match=":2: malformed layer count"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"],
                             ids=["underscore", "arabic-indic", "fullwidth"])
    @pytest.mark.parametrize("lineno", [2, 3, 5])
    def test_number_only_python_reads_reports_line(self, tmp_path, cell, lineno):
        # float() and int() take digit underscores (1_0 is 10) and non-ASCII digits
        rows = ["layers 1", "layer 2 2", "1.0 2.0", "0.0 1", "0.0 0.0"]
        rows[lineno - 2] = rows[lineno - 2][:-1] + cell
        path = tmp_path / "bad.ckpt"
        path.write_text("\n".join(["rectidistill-mlp v1", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f":{lineno}: non-numeric value"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize(
        "cells,lineno", [("inf 1", 4), ("1 nan", 4), ("0.0 -inf", 6), ("nan 0.0", 6)]
    )
    def test_non_finite_value_reports_line(self, tmp_path, cells, lineno):
        rows = ["1.0 2.0", "0.0 0.0", "0.0 0.0"]
        rows[lineno - 4] = cells
        path = tmp_path / "bad.ckpt"
        path.write_text("rectidistill-mlp v1\nlayers 1\nlayer 2 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(InvalidInputError, match=f":{lineno}: non-finite"):
            model.load_checkpoint(path)
