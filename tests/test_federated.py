import numpy as np
import pytest

from fedlora import autoencoder as ae
from fedlora.federated import (
    SCHEDULE_COMBOS,
    ClientState,
    FLSchedule,
    fedavg,
    fnv1a64,
    make_clients,
    run_round,
    run_schedule,
)
from fedlora.frame import FeatureFrame

ARCH = ae.ArchSpec(hidden_sizes=(4,))


def _client_data(machines=("Manitou", "AtlasD7"), n=40, seed=0):
    rng = np.random.default_rng(seed)
    return {m: FeatureFrame(rng.normal(size=(n, 5)), np.array([m] * n)) for m in machines}


class TestFedavg:
    def test_identical_vectors_idempotent(self):
        vec = np.array([0.1, 0.2, 0.7])
        out = fedavg([(vec, 3), (vec, 5), (vec, 9)])
        assert np.array_equal(out, vec)

    def test_equal_counts_hand_case(self):
        out = fedavg([(np.array([1.0, 1.0]), 4), (np.array([3.0, 3.0]), 4)])
        assert np.array_equal(out, np.array([2.0, 2.0]))

    def test_weighted_mean_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 30))
            vecs = rng.normal(size=(k, dim))
            counts = [int(c) for c in rng.integers(1, 5000, size=k)]
            total = sum(counts)
            oracle = np.zeros(dim)
            for v, c in zip(vecs, counts):
                oracle += (c / total) * v
            out = fedavg(list(zip(vecs, counts)))
            tol = 1e-12 * max(1.0, float(np.abs(vecs).max()))
            assert np.allclose(out, oracle, rtol=1e-12, atol=tol)

    def test_convex_envelope(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            vecs = rng.normal(size=(4, 10)) * 100
            counts = [int(c) for c in rng.integers(1, 100, size=4)]
            out = fedavg(list(zip(vecs, counts)))
            assert np.all(out >= vecs.min(axis=0))
            assert np.all(out <= vecs.max(axis=0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(4, 20))
        counts = [3, 11, 7, 29]
        base = fedavg(list(zip(vecs, counts)))
        perm = [2, 0, 3, 1]
        swapped = fedavg([(vecs[i], counts[i]) for i in perm])
        assert np.allclose(swapped, base, rtol=1e-12, atol=0)

    def test_errors(self):
        with pytest.raises(ValueError):
            fedavg([])
        with pytest.raises(ValueError):
            fedavg([(np.zeros(3), 1), (np.zeros(4), 1)])
        with pytest.raises(ValueError):
            fedavg([(np.zeros(3), 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_update_rejected(self, bad):
        vec = np.ones(3)
        vec[1] = bad
        with pytest.raises(ValueError, match="finite"):
            fedavg([(np.zeros(3), 5), (vec, 2)])

    @pytest.mark.parametrize("count", [0.5, 2.0, True])
    def test_non_integer_or_small_count_rejected(self, count):
        with pytest.raises(ValueError, match="sample counts"):
            fedavg([(np.zeros(3), 4), (np.ones(3), count)])

    def test_equals_the_client_order_loop(self):
        # each share times its update, added to a zero in client order in extended
        # precision: all -0.0 updates average to +0.0, as they always did
        rng = np.random.default_rng(5)
        for trial in range(300):
            k, dim = int(rng.integers(1, 7)), int(rng.integers(1, 60))
            vecs = rng.normal(size=(k, dim)) * 10.0 ** int(rng.integers(-100, 100))
            if trial % 3 == 0:
                vecs[rng.integers(k)] = -0.0
            if trial % 10 == 0:
                vecs[:] = -0.0
            updates = list(zip(vecs, [int(c) for c in rng.integers(1, 5000, size=k)]))
            assert fedavg(updates).tobytes() == _fedavg_loop(updates).tobytes(), trial
        assert not np.signbit(fedavg([(np.full(4, -0.0), 3), (np.full(4, -0.0), 1)])).any()

    def test_nan_row_names_finite_updates(self):
        with pytest.raises(ValueError, match="^client updates must be finite$"):
            fedavg([(np.zeros(3), 5), (np.full(3, np.nan), 2), (np.ones(3), 1)])


def _fedavg_loop(updates):
    """The weighted average as a loop over the clients in order, in extended precision."""
    total = np.longdouble(sum(count for _, count in updates))
    acc = np.zeros(len(updates[0][0]), dtype=np.longdouble)
    for vec, count in updates:
        acc += (np.longdouble(count) / total) * np.asarray(vec, dtype=np.float64).astype(np.longdouble)
    return acc.astype(np.float64)


def _fnv_reference(data: bytes) -> int:
    """FNV-1a 64 one byte at a time, as the algorithm is specified."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _row(data: bytes) -> np.ndarray:
    """The bytes as a 1-row uint8 matrix, the shape fnv1a64 takes."""
    return np.frombuffer(data, dtype=np.uint8).reshape(1, -1)


class TestFnv:
    def test_known_vectors(self):
        # standard FNV-1a 64 test vectors, each hashed as a 1-row matrix
        for data, expected in (
            (b"", 0xCBF29CE484222325),
            (b"a", 0xAF63DC4C8601EC8C),
            (b"foobar", 0x85944171F73967E8),
        ):
            assert _fnv_reference(data) == expected
            assert fnv1a64(_row(data)) == [expected]

    def test_known_vectors_as_matrix_rows(self):
        rows = np.frombuffer(b"foobarfoobaa", dtype=np.uint8).reshape(2, 6)
        assert fnv1a64(rows) == [0x85944171F73967E8, _fnv_reference(b"foobaa")]

    @pytest.mark.parametrize("shape", [(1, 0), (3, 1), (4, 7), (2, 1442)])
    def test_matrix_rows_match_byte_loop(self, shape):
        rows = np.random.default_rng(shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
        sums = fnv1a64(rows)
        assert sums == [_fnv_reference(row.tobytes()) for row in rows]
        assert all(type(h) is int for h in sums)
        assert [fnv1a64(_row(row.tobytes()))[0] for row in rows] == sums
        assert fnv1a64(np.asfortranarray(rows)) == sums

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(4, dtype=np.uint8),
            np.zeros((2, 2, 2), dtype=np.uint8),
            np.zeros((2, 3), dtype=np.int8),
            np.zeros((2, 3), dtype=np.uint64),
            np.zeros((2, 3)),
            [[1, 2, 3]],
            "foobar",
            b"foobar",
        ],
        ids=["1-d", "3-d", "int8", "uint64", "float", "list", "str", "bytes"],
    )
    def test_rejects_anything_but_bytes_or_a_uint8_matrix(self, bad):
        # only a 2-D uint8 matrix is hashed; raw bytes are rejected as well
        with pytest.raises(ValueError):
            fnv1a64(bad)


class TestRounds:
    def test_zero_epochs_rejected(self):
        train = _client_data()
        clients = make_clients(train, ARCH, seed=0)
        g = ae.build_autoencoder(ARCH, seed=0)
        before = ae.get_weights(g)
        with pytest.raises(ValueError, match="epochs and rounds must be >= 1"):
            run_round([g], [clients], epochs=0, cfg=ae.TrainConfig())
        assert np.array_equal(ae.get_weights(g), before)
        assert all(c.optimizer.t == 0 for c in clients)

    def test_bare_global_model_or_client_list_rejected(self):
        clients = make_clients(_client_data(), ARCH, seed=0)
        g = ae.build_autoencoder(ARCH, seed=0)
        for args in ((g, [clients]), ([g], clients), (g, clients)):
            with pytest.raises(ValueError, match="run_round takes lists"):
                run_round(*args, epochs=1, cfg=ae.TrainConfig())
            with pytest.raises(ValueError, match="run_round takes lists"):
                run_schedule(FLSchedule(1, 1, budget=1), args[1], args[0], ae.TrainConfig())
        assert all(c.optimizer.t == 0 for c in clients)

    def test_single_client_round_is_plain_training(self):
        train = _client_data(machines=("Manitou",), seed=3)
        clients = make_clients(train, ARCH, seed=1)
        g = ae.build_autoencoder(ARCH, seed=1)

        reference = ae.AutoencoderModel(ARCH)
        ae.set_weights(reference, ae.get_weights(g))
        ref_opt = ae.AdamState(reference.n_params)
        ref_rng = np.random.default_rng(np.random.SeedSequence([1, 0]))
        ae.train([reference], [train["Manitou"]], ae.TrainConfig(epochs=4),
                 optimizer=[ref_opt], shuffle_rng=[ref_rng])

        run_round([g], [clients], epochs=4, cfg=ae.TrainConfig())
        assert np.array_equal(ae.get_weights(g), ae.get_weights(reference))

    def test_single_client_schedule_matches_uninterrupted_training(self):
        # E x R rounds == one train call of E*R epochs, bit for bit
        train = _client_data(machines=("Manitou",), seed=4)
        clients = make_clients(train, ARCH, seed=2)
        g = ae.build_autoencoder(ARCH, seed=2)
        reference = ae.AutoencoderModel(ARCH)
        ae.set_weights(reference, ae.get_weights(g))
        ref_opt = ae.AdamState(reference.n_params)
        ref_rng = np.random.default_rng(np.random.SeedSequence([2, 0]))
        ae.train([reference], [train["Manitou"]], ae.TrainConfig(epochs=12),
                 optimizer=[ref_opt], shuffle_rng=[ref_rng])

        run_schedule(FLSchedule(3, 4, budget=12), [clients], [g], ae.TrainConfig())
        assert np.array_equal(ae.get_weights(g), ae.get_weights(reference))

    @pytest.mark.parametrize("epochs, rounds", [(8, 2), (9, 2), (16, 1), (17, 1)])
    def test_round_means_are_np_mean_of_the_trace(self, epochs, rounds):
        # from 8 epochs a round np.mean sums pairwise; a lone client's round means
        # must equal np.mean of its uninterrupted trace's slices, bit for bit
        train = _client_data(machines=("Manitou",), n=21, seed=7)
        clients = make_clients(train, ARCH, seed=5)
        g = ae.build_autoencoder(ARCH, seed=5)
        reference = ae.AutoencoderModel(ARCH)
        ae.set_weights(reference, ae.get_weights(g))
        [trace] = ae.train([reference], [train["Manitou"]], ae.TrainConfig(epochs=epochs * rounds),
                           optimizer=[ae.AdamState(reference.n_params)],
                           shuffle_rng=[np.random.default_rng(np.random.SeedSequence([5, 0]))])

        schedule = FLSchedule(epochs, rounds, budget=epochs * rounds)
        [history] = run_schedule(schedule, [clients], [g], ae.TrainConfig())
        means = [float(np.mean(trace[r * epochs : (r + 1) * epochs])) for r in range(rounds)]
        assert [row["mean_loss"] for row in history] == means

    def test_bitwise_reproducible_across_runs(self):
        outcomes = []
        for _ in range(2):
            train = _client_data(seed=5)
            clients = make_clients(train, ARCH, seed=3)
            g = ae.build_autoencoder(ARCH, seed=3)
            [hist] = run_schedule(FLSchedule(2, 2, budget=4), [clients], [g], ae.TrainConfig())
            outcomes.append((ae.get_weights(g), hist[-1]["global_checksum"]))
        assert np.array_equal(outcomes[0][0], outcomes[1][0])
        assert outcomes[0][1] == outcomes[1][1]

    def test_round_losses_reported_per_client(self):
        train = _client_data(seed=6)
        clients = make_clients(train, ARCH, seed=4)
        g = ae.build_autoencoder(ARCH, seed=4)
        [[losses]], _ = run_round([g], [clients], epochs=2, cfg=ae.TrainConfig())
        assert set(losses) == {"Manitou", "AtlasD7"}
        assert all(np.isfinite(v) for v in losses.values())


class TestStackedFederations:
    """Federations advanced together equal each one advanced alone, bit for bit."""

    SPECS = ((("Manitou", "AtlasD7"), 40, 11), (("Manitou", "AtlasD7", "JawCrusher"), 23, 12))

    def _federation(self, machines, n, seed):
        train = _client_data(machines, n=n, seed=seed)
        return make_clients(train, ARCH, seed=seed), ae.build_autoencoder(ARCH, seed=seed)

    def test_schedule_matches_separate_schedules(self):
        alone = []
        for spec in self.SPECS:
            clients, g = self._federation(*spec)
            alone.append((g, *run_schedule(FLSchedule(2, 3, budget=6), [clients], [g], ae.TrainConfig())))
        feds = [self._federation(*spec) for spec in self.SPECS]
        globals_ = [g for _, g in feds]
        histories = run_schedule(FLSchedule(2, 3, budget=6), [c for c, _ in feds], globals_, ae.TrainConfig())
        assert len(globals_) == len(histories) == len(self.SPECS)
        for (g_alone, hist_alone), g, hist, (clients, _) in zip(alone, globals_, histories, feds):
            assert np.array_equal(ae.get_weights(g), ae.get_weights(g_alone))
            assert hist == hist_alone  # rounds, client losses and checksums
            assert all(c.optimizer.t == 3 * 2 * -(-c.n_samples // 16) for c in clients)

    def test_history_checksums_fingerprint_each_round(self):
        feds = [self._federation(*spec) for spec in self.SPECS]
        expected = [[] for _ in feds]
        for _ in range(3):
            run_round([g for _, g in feds], [c for c, _ in feds], 2, ae.TrainConfig())
            for sums, (_, g) in zip(expected, feds):
                sums.append(fnv1a64(_row(ae.serialize(g)))[0])
        assert len(set(expected[0] + expected[1])) == 6
        feds = [self._federation(*spec) for spec in self.SPECS]
        histories = run_schedule(
            FLSchedule(2, 3, budget=6), [c for c, _ in feds], [g for _, g in feds], ae.TrainConfig()
        )
        for hist, sums, (machines, _, _) in zip(histories, expected, self.SPECS):
            assert [row["round"] for row in hist] == [r for r in (1, 2, 3) for _ in machines]
            assert [row["global_checksum"] for row in hist] == [h for h in sums for _ in machines]

    def test_round_returns_one_loss_dict_per_federation(self):
        feds = [self._federation(*spec) for spec in self.SPECS]
        [losses], _ = run_round([g for _, g in feds], [c for c, _ in feds], 1, ae.TrainConfig())
        assert [set(d) for d in losses] == [set(spec[0]) for spec in self.SPECS]
        # every federation aggregated into its own global model
        for (_, g), (_, _, seed) in zip(feds, self.SPECS):
            assert not np.array_equal(ae.get_weights(g), ae.get_weights(ae.build_autoencoder(ARCH, seed)))

    def test_mismatched_lists_rejected(self):
        clients, g = self._federation(*self.SPECS[0])
        with pytest.raises(ValueError, match="one non-empty client list per global model"):
            run_round([g, g], [clients], 1, ae.TrainConfig())
        with pytest.raises(ValueError, match="one non-empty client list per global model"):
            run_round([g], [[]], 1, ae.TrainConfig())


class TestScheduleIsChainedRounds:
    """A schedule equals its rounds run one `run_round` call each, bit for bit."""

    # at batch 8: fewer rows than a batch, a multiple of the batch, and ragged
    SPECS = ((("Manitou", "AtlasD7", "JawCrusher"), (5, 16, 21), 31), (("AtlasD7", "Manitou"), (24, 13), 32))
    CFG = ae.TrainConfig(batch_size=8)

    def _federations(self, count):
        feds = []
        for machines, sizes, seed in self.SPECS[:count]:
            rng = np.random.default_rng(seed)
            train = {m: FeatureFrame(rng.normal(size=(n, 5)), np.array([m] * n)) for m, n in zip(machines, sizes)}
            feds.append((make_clients(train, ARCH, seed=seed), ae.build_autoencoder(ARCH, seed=seed)))
        return [c for c, _ in feds], [g for _, g in feds]

    def _chained(self, schedule, groups, globals_):
        histories = [[] for _ in groups]
        for round_no in range(1, schedule.rounds + 1):
            [losses], _ = run_round(globals_, groups, schedule.epochs_per_round, self.CFG)
            for g, group, fed_losses, history in zip(globals_, groups, losses, histories):
                checksum = fnv1a64(_row(ae.serialize(g)))[0]
                history += [
                    {
                        "round": round_no,
                        "client": c.client_id,
                        "epochs": schedule.epochs_per_round,
                        "mean_loss": fed_losses[c.client_id],
                        "global_checksum": checksum,
                    }
                    for c in group
                ]
        return histories

    @pytest.mark.parametrize("epochs,rounds", [(1, 3), (2, 2), (3, 1)], ids=["1x3", "2x2", "3x1"])
    @pytest.mark.parametrize("federations", [1, 2])
    def test_schedule_equals_chained_rounds(self, epochs, rounds, federations):
        schedule = FLSchedule(epochs, rounds, budget=epochs * rounds)
        groups, globals_ = self._federations(federations)
        expected = self._chained(schedule, groups, globals_)
        got_groups, got_globals = self._federations(federations)
        histories = run_schedule(schedule, got_groups, got_globals, self.CFG)
        assert histories == expected
        for g, got_g in zip(globals_, got_globals):
            assert np.array_equal(ae.get_weights(got_g), ae.get_weights(g))
        for group, got_group in zip(groups, got_groups):
            for c, got in zip(group, got_group):
                assert np.array_equal(got.model._flat, c.model._flat)
                assert np.array_equal(got.optimizer.m, c.optimizer.m)
                assert np.array_equal(got.optimizer.v, c.optimizer.v)
                assert got.optimizer.t == c.optimizer.t == rounds * epochs * -(-c.n_samples // 8)
                assert got.shuffle_rng.random() == c.shuffle_rng.random()

    def test_unequal_federations_round_equals_chained_rounds(self):
        # one federation of one client and one of four: each round end averages each
        # federation's own stack rows
        def federations():
            feds = []
            for seed, sizes in ((3, {"AtlasD7": 13}), (4, {"Manitou": 21, "AtlasD7": 5, "JawCrusher": 16, "DoosanDL200": 30})):
                rng = np.random.default_rng(seed)
                train = {m: FeatureFrame(rng.normal(size=(n, 5)), np.array([m] * n)) for m, n in sizes.items()}
                feds.append((make_clients(train, ARCH, seed=seed), ae.build_autoencoder(ARCH, seed=seed)))
            return [c for c, _ in feds], [g for _, g in feds]

        groups, globals_ = federations()
        per_round, blobs = run_round(globals_, groups, 2, self.CFG, rounds=3)
        chained_groups, chained_globals = federations()
        chained, chained_blobs = [], bytearray()
        for _ in range(3):
            [losses], blob = run_round(chained_globals, chained_groups, 2, self.CFG)
            chained.append(losses)
            chained_blobs += blob
        assert per_round == chained
        assert blobs == chained_blobs
        for g, chained_g in zip(globals_, chained_globals):
            assert np.array_equal(g._flat, chained_g._flat)
        for group, chained_group in zip(groups, chained_groups):
            for c, other in zip(group, chained_group):
                assert np.array_equal(c.model._flat, other.model._flat)
                assert np.array_equal(c.optimizer.m, other.optimizer.m)
                assert c.optimizer.t == other.optimizer.t


class TestSchedules:
    def test_all_published_combos_meet_budget(self):
        assert len(SCHEDULE_COMBOS) == 10
        for epochs, rounds in SCHEDULE_COMBOS:
            FLSchedule(epochs, rounds, budget=80)  # validates E*R == 80
            assert epochs * rounds == 80

    def test_80_1_runs_one_aggregation(self):
        train = _client_data(n=12, seed=7)
        clients = make_clients(train, ARCH, seed=5)
        g = ae.build_autoencoder(ARCH, seed=5)
        [hist] = run_schedule(FLSchedule(80, 1), [clients], [g], ae.TrainConfig())
        assert [row["round"] for row in hist] == [1, 1]  # one row per client
        assert {row["epochs"] for row in hist} == {80}

    def test_1_80_runs_eighty_aggregations(self):
        train = _client_data(n=12, seed=8)
        clients = make_clients(train, ARCH, seed=6)
        g = ae.build_autoencoder(ARCH, seed=6)
        [hist] = run_schedule(FLSchedule(1, 80), [clients], [g], ae.TrainConfig())
        assert [row["round"] for row in hist] == [r for r in range(1, 81) for _ in clients]

    def test_rounds_number_from_one_in_each_call(self):
        train = _client_data(n=12, seed=9)
        clients = make_clients(train, ARCH, seed=7)
        g = ae.build_autoencoder(ARCH, seed=7)
        for _ in range(2):
            [hist] = run_schedule(FLSchedule(1, 3, budget=3), [clients], [g], ae.TrainConfig())
            assert [row["round"] for row in hist] == [r for r in (1, 2, 3) for _ in clients]

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            FLSchedule(3, 7, budget=80)
        with pytest.raises(ValueError):
            FLSchedule(0, 80, budget=80)


class TestHistoryExport:
    def test_history_csv_columns(self, tmp_path):
        train = _client_data(n=10, seed=20)
        clients = make_clients(train, ARCH, seed=20)
        g = ae.build_autoencoder(ARCH, seed=20)
        from fedlora.federated import write_history_csv

        [hist] = run_schedule(FLSchedule(2, 2, budget=4), [clients], [g], ae.TrainConfig())
        path = tmp_path / "history.csv"
        write_history_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,client,epochs,mean_loss,global_checksum"
        assert len(lines) == 1 + 2 * 2  # rounds x clients
