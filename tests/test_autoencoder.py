import dataclasses

import numpy as np
import pytest

from fedlora.autoencoder import (
    AdamState,
    ArchSpec,
    TrainConfig,
    build_autoencoder,
    deserialize,
    forward,
    get_weights,
    loss_and_gradient,
    mse,
    param_count,
    payload_kb,
    serialize,
    serialized_param_bytes,
    set_weights,
    train,
)


class TestArchAndCounts:
    def test_layer_dims_single_hidden(self):
        assert ArchSpec(hidden_sizes=(32,)).layer_dims() == [5, 32, 5]

    def test_layer_dims_mirrored(self):
        assert ArchSpec(hidden_sizes=(16, 8)).layer_dims() == [5, 16, 8, 16, 5]

    @pytest.mark.parametrize("hidden,expected", [(16, 181), (32, 357), (64, 709)])
    def test_published_param_counts(self, hidden, expected):
        assert param_count(ArchSpec(hidden_sizes=(hidden,))) == expected

    def test_h128_follows_formula(self):
        # 11*128 + 5; the 4-byte float payload confirms it (5.52 KB)
        assert param_count(ArchSpec(hidden_sizes=(128,))) == 1413
        assert abs(payload_kb(1413) - 5.52) <= 0.01

    def test_h1_minimal(self):
        assert param_count(ArchSpec(hidden_sizes=(1,))) == 16

    def test_formula_property(self):
        for h in range(1, 1025):
            assert param_count(ArchSpec(hidden_sizes=(h,))) == 11 * h + 5

    @pytest.mark.parametrize("bad", [(), (0,), (-3,)])
    def test_invalid_hidden_sizes(self, bad):
        with pytest.raises(ValueError):
            ArchSpec(hidden_sizes=bad)

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            ArchSpec(activation="softplus")


class TestBuild:
    def test_same_seed_identical(self):
        a = build_autoencoder(ArchSpec(), seed=11)
        b = build_autoencoder(ArchSpec(), seed=11)
        assert np.array_equal(get_weights(a), get_weights(b))

    def test_different_seed_differs(self):
        a = build_autoencoder(ArchSpec(), seed=11)
        b = build_autoencoder(ArchSpec(), seed=12)
        assert not np.array_equal(get_weights(a), get_weights(b))

    def test_biases_zero_weights_bounded(self):
        model = build_autoencoder(ArchSpec(hidden_sizes=(32,)), seed=0)
        for b in model.biases:
            assert np.all(b == 0.0)
        for w in model.weights:
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= bound)

    def test_param_count_matches_model(self):
        model = build_autoencoder(ArchSpec(hidden_sizes=(32,)), seed=0)
        assert model.n_params == 357
        assert serialized_param_bytes(model) == 1428


class TestMse:
    def test_identical_is_zero(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_case(self):
        assert mse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(2.0)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=37)
        b = rng.normal(size=37)
        acc = 0.0
        for x, y in zip(a, b):
            acc += (x - y) ** 2
        assert mse(a, b) == pytest.approx(acc / 37, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestForward:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_zero_model_zero_output(self, activation):
        model = build_autoencoder(ArchSpec(activation=activation), seed=0)
        set_weights(model, np.zeros(model.n_params))
        x = np.random.default_rng(1).normal(size=(4, 5))
        assert np.all(forward(model, x) == 0.0)

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_shape_contract(self, n):
        model = build_autoencoder(ArchSpec(), seed=0)
        x = np.random.default_rng(2).normal(size=(n, 5))
        assert forward(model, x).shape == (n, 5)

    def test_hand_computed_affine_chain(self):
        # 2-input toy with hand-set weights; tanh hidden, linear output
        model = build_autoencoder(ArchSpec(input_dim=2, hidden_sizes=(2,)), seed=0)
        w1 = np.array([[1.0, 0.5], [-0.25, 2.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 0.0], [1.0, -1.0]])
        b2 = np.array([0.0, 0.3])
        model.weights[0][:] = w1
        model.biases[0][:] = b1
        model.weights[1][:] = w2
        model.biases[1][:] = b2
        x = np.array([[0.3, -0.7], [1.5, 0.25]])
        expected = np.tanh(x @ w1 + b1) @ w2 + b2
        assert np.allclose(forward(model, x), expected, rtol=1e-15)

    def test_wrong_width_rejected(self):
        model = build_autoencoder(ArchSpec(), seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((3, 4)))


class TestGradients:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("hidden", [(1,), (2,), (3,)])
    def test_backprop_matches_finite_differences(self, activation, hidden):
        rng = np.random.default_rng(hash((activation, hidden)) % (2**32))
        model = build_autoencoder(
            ArchSpec(hidden_sizes=hidden, activation=activation), seed=int(rng.integers(1 << 30))
        )
        assert model.n_params <= 50
        x = rng.normal(size=(6, 5))
        _, grad = loss_and_gradient(model, x)
        base = get_weights(model)
        step = 1e-4
        fd = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                w = base.copy()
                w[i] += sign * step
                set_weights(model, w)
                fd[i] += sign * mse(forward(model, x), x)
            fd[i] /= 2 * step
        set_weights(model, base)
        assert np.max(np.abs(grad - fd)) < 1e-5

    def test_relu_backprop_away_from_kinks(self):
        # keep every pre-activation off zero so the subgradient is exact
        model = build_autoencoder(ArchSpec(hidden_sizes=(2,), activation="relu"), seed=3)
        model.biases[0][:] = 1.5
        rng = np.random.default_rng(4)
        x = rng.uniform(0.2, 0.8, size=(5, 5))
        _, grad = loss_and_gradient(model, x)
        base = get_weights(model)
        step = 1e-6
        fd = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                w = base.copy()
                w[i] += sign * step
                set_weights(model, w)
                fd[i] += sign * mse(forward(model, x), x)
            fd[i] /= 2 * step
        assert np.max(np.abs(grad - fd)) < 1e-4

    def test_loss_value_matches_mse(self):
        model = build_autoencoder(ArchSpec(), seed=5)
        x = np.random.default_rng(6).normal(size=(8, 5))
        loss, _ = loss_and_gradient(model, x)
        assert loss == pytest.approx(mse(forward(model, x), x), rel=1e-12)

    def test_empty_batch(self):
        model = build_autoencoder(ArchSpec(), seed=5)
        assert forward(model, np.zeros((0, 5))).shape == (0, 5)
        with pytest.raises(ValueError, match="empty"):
            loss_and_gradient(model, np.zeros((0, 5)))


class TestTrain:
    def test_zero_epochs_noop(self):
        model = build_autoencoder(ArchSpec(), seed=0)
        before = get_weights(model)
        trace = train(model, np.zeros((10, 5)), TrainConfig(epochs=0))
        assert trace == []
        assert np.array_equal(get_weights(model), before)

    def test_zero_epochs_keep_optimizer_and_stream(self):
        rng = np.random.default_rng(3)
        data = [rng.normal(size=(n, 5)) for n in (20, 9)]
        models = [build_autoencoder(ArchSpec(), seed=i) for i in range(2)]
        opts = [AdamState(m.n_params) for m in models]
        streams = [np.random.default_rng(i) for i in range(2)]
        train(models, data, TrainConfig(epochs=2, batch_size=8), opts, streams)
        before = [(get_weights(m), o.m.copy(), o.v.copy(), o.t, g.bit_generator.state)
                  for m, o, g in zip(models, opts, streams)]
        assert train(models, data, TrainConfig(epochs=0), opts, streams) == [[], []]
        for (w, m, v, t, state), model, opt, stream in zip(before, models, opts, streams):
            assert np.array_equal(get_weights(model), w)
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v) and opt.t == t
            assert stream.bit_generator.state == state

    def test_default_shuffle_stream_is_seed_zero(self):
        rng = np.random.default_rng(12)
        data = [rng.normal(size=(n, 5)) for n in (37, 20)]
        cfg = TrainConfig(epochs=3, batch_size=8)

        def run(shuffle_rng, many):
            models = [build_autoencoder(ArchSpec(), seed=i) for i in range(2)]
            if many:
                traces = train(models, data, cfg, shuffle_rng=shuffle_rng)
            else:
                traces = [train(models[0], data[0], cfg, shuffle_rng=shuffle_rng)]
            return traces, [get_weights(m) for m in models]

        def seeded(seed, many):
            return [np.random.default_rng(seed) for _ in data] if many else np.random.default_rng(seed)

        for many in (False, True):
            traces, weights = run(None, many)
            pinned, pinned_weights = run(seeded(0, many), many)
            assert traces == pinned
            assert all(np.array_equal(a, b) for a, b in zip(weights, pinned_weights))
            assert run(seeded(1, many), many)[0] != traces

    def test_config_holds_only_the_schedule(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names == ["epochs", "batch_size", "learning_rate"]

    def test_overfits_repeated_point(self):
        point = np.array([[0.5, -0.3, 0.8, 0.1, -0.9]])
        data = np.repeat(point, 30, axis=0)
        model = build_autoencoder(ArchSpec(hidden_sizes=(8,)), seed=1)
        trace = train(model, data, TrainConfig(epochs=500, batch_size=16),
                      shuffle_rng=np.random.default_rng(1))
        assert trace[-1] < 1e-3

    def test_loss_eventually_improves(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(200, 5))
        model = build_autoencoder(ArchSpec(), seed=2)
        trace = train(model, data, TrainConfig(epochs=20, batch_size=16),
                      shuffle_rng=np.random.default_rng(2))
        assert trace[-1] < trace[0]

    def test_deterministic_given_seeds(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(64, 5))
        results = []
        for _ in range(2):
            model = build_autoencoder(ArchSpec(), seed=3)
            train(model, data, TrainConfig(epochs=3, batch_size=16),
                  shuffle_rng=np.random.default_rng(9))
            results.append(get_weights(model))
        assert np.array_equal(results[0], results[1])

    def test_empty_dataset_errors(self):
        model = build_autoencoder(ArchSpec(), seed=0)
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 5)), TrainConfig(epochs=1))

    def test_optimizer_state_continues_run(self):
        # two 5-epoch calls with persistent state == one 10-epoch call
        rng = np.random.default_rng(10)
        data = rng.normal(size=(48, 5))

        one = build_autoencoder(ArchSpec(), seed=4)
        train(one, data, TrainConfig(epochs=10, batch_size=16),
              shuffle_rng=np.random.default_rng(77))

        two = build_autoencoder(ArchSpec(), seed=4)
        opt = AdamState(two.n_params)
        stream = np.random.default_rng(77)
        for _ in range(2):
            train(two, data, TrainConfig(epochs=5, batch_size=16),
                  optimizer=opt, shuffle_rng=stream)
        assert np.array_equal(get_weights(one), get_weights(two))


class TestWeightVector:
    def test_round_trip_bitwise(self):
        model = build_autoencoder(ArchSpec(), seed=6)
        vec = get_weights(model)
        other = build_autoencoder(ArchSpec(), seed=7)
        set_weights(other, vec)
        assert np.array_equal(get_weights(other), vec)

    def test_canonical_order_matrix_then_bias(self):
        model = build_autoencoder(ArchSpec(hidden_sizes=(2,), input_dim=2), seed=0)
        vec = get_weights(model)
        # layer 0: 2x2 matrix row-major, then 2 biases, then layer 1
        assert np.array_equal(vec[:4], model.weights[0].ravel())
        assert np.array_equal(vec[4:6], model.biases[0])
        assert np.array_equal(vec[6:10], model.weights[1].ravel())

    def test_zero_vector_forwards_zero(self):
        model = build_autoencoder(ArchSpec(), seed=8)
        set_weights(model, np.zeros(model.n_params))
        x = np.random.default_rng(11).normal(size=(3, 5))
        assert np.all(forward(model, x) == 0.0)

    def test_wrong_length_rejected(self):
        model = build_autoencoder(ArchSpec(), seed=9)
        with pytest.raises(ValueError):
            set_weights(model, np.zeros(model.n_params + 1))


class TestSerialization:
    def test_round_trip_at_float32(self):
        model = build_autoencoder(ArchSpec(hidden_sizes=(16,)), seed=10)
        clone = deserialize(serialize(model))
        assert clone.arch == model.arch
        assert np.allclose(get_weights(clone), get_weights(model), atol=1e-7)
        # bytes -> model -> bytes is bitwise identity
        assert serialize(clone) == serialize(model)
        assert np.array_equal(
            get_weights(deserialize(serialize(clone))), get_weights(clone)
        )

    def test_container_payload_size(self):
        model = build_autoencoder(ArchSpec(hidden_sizes=(32,)), seed=0)
        blob = serialize(model)
        header = 4 + 2 + 4 * len(model.weights)  # magic+version+count, dims
        assert len(blob) - header == 1428

    def test_truncated_stream_rejected(self):
        blob = serialize(build_autoencoder(ArchSpec(), seed=0))
        with pytest.raises(ValueError, match="truncated|payload"):
            deserialize(blob[:-5])

    def test_bad_magic(self):
        blob = b"XXXX" + serialize(build_autoencoder(ArchSpec(), seed=0))[4:]
        with pytest.raises(ValueError, match="magic"):
            deserialize(blob)

    def test_bad_version(self):
        blob = bytearray(serialize(build_autoencoder(ArchSpec(), seed=0)))
        blob[4] = 0x7F
        with pytest.raises(ValueError, match="version"):
            deserialize(bytes(blob))

    def test_activation_parameter(self):
        model = build_autoencoder(ArchSpec(activation="relu"), seed=1)
        clone = deserialize(serialize(model), activation="relu")
        assert clone.arch == model.arch

    def test_multi_layer_round_trip(self):
        model = build_autoencoder(ArchSpec(hidden_sizes=(8, 3)), seed=2)
        clone = deserialize(serialize(model))
        assert clone.arch.hidden_sizes == (8, 3)
        assert np.allclose(get_weights(clone), get_weights(model), atol=1e-6)


class TestTrainRejects:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data(self, bad):
        model = build_autoencoder(ArchSpec(), seed=0)
        before = get_weights(model)
        data = np.random.default_rng(0).normal(size=(20, 5))
        data[7, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            train(model, data, TrainConfig(epochs=1))
        assert np.array_equal(get_weights(model), before)

    def test_data_list_length(self):
        models = [build_autoencoder(ArchSpec(), seed=i) for i in range(2)]
        with pytest.raises(ValueError, match="one entry per model"):
            train(models, [np.zeros((4, 5))], TrainConfig(epochs=1))

    def test_optimizer_list_length(self):
        models = [build_autoencoder(ArchSpec(), seed=i) for i in range(2)]
        data = [np.zeros((4, 5))] * 2
        with pytest.raises(ValueError, match="one entry per model"):
            train(models, data, TrainConfig(epochs=1), optimizer=[AdamState(357)] * 3)

    def test_shuffle_rng_list_length(self):
        models = [build_autoencoder(ArchSpec(), seed=i) for i in range(2)]
        data = [np.zeros((4, 5))] * 2
        with pytest.raises(ValueError, match="one entry per model"):
            train(models, data, TrainConfig(epochs=1), shuffle_rng=[np.random.default_rng(0)])

    def test_architectures_differ(self):
        models = [
            build_autoencoder(ArchSpec(hidden_sizes=(32,)), seed=0),
            build_autoencoder(ArchSpec(hidden_sizes=(16,)), seed=0),
        ]
        with pytest.raises(ValueError, match="architecture"):
            train(models, [np.zeros((4, 5))] * 2, TrainConfig(epochs=1))

    def test_activations_differ(self):
        models = [
            build_autoencoder(ArchSpec(activation="tanh"), seed=0),
            build_autoencoder(ArchSpec(activation="relu"), seed=0),
        ]
        with pytest.raises(ValueError, match="architecture"):
            train(models, [np.zeros((4, 5))] * 2, TrainConfig(epochs=1))

    def test_shared_generator(self):
        # lockstep would interleave the draws that two separate calls take in turn
        models = [build_autoencoder(ArchSpec(), seed=i) for i in range(2)]
        stream = np.random.default_rng(0)
        with pytest.raises(ValueError, match="same shuffle_rng"):
            train(models, [np.zeros((4, 5))] * 2, TrainConfig(epochs=1), None, [stream, stream])

    def test_optimizer_size(self):
        model = build_autoencoder(ArchSpec(), seed=0)
        with pytest.raises(ValueError, match="optimizer state"):
            train(model, np.zeros((4, 5)), TrainConfig(epochs=1), optimizer=AdamState(10))

    def test_empty_model_list(self):
        with pytest.raises(ValueError, match="no models"):
            train([], [], TrainConfig(epochs=1))
