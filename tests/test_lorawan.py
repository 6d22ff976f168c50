import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.autoencoder import ArchSpec
from fedlora.lorawan import (
    MAX_FRAGMENTS,
    PROFILES,
    fragmentation_plan,
    messages_required,
    plan_table,
    profile_for,
    training_hours,
)


class TestProfiles:
    def test_payload_caps(self):
        assert PROFILES[7].max_payload == 222
        assert PROFILES[8].max_payload == 222
        assert PROFILES[9].max_payload == 115
        assert PROFILES[10].max_payload == 115
        assert PROFILES[11].max_payload == 51
        assert PROFILES[12].max_payload == 51

    def test_min_periodicities(self):
        expected = {7: 6.2, 8: 11.3, 9: 20.6, 10: 41.2, 11: 82.3, 12: 148.3}
        for sf, seconds in expected.items():
            assert PROFILES[sf].min_periodicity == seconds

    def test_unknown_sf(self):
        with pytest.raises(ValueError):
            profile_for(6)


class TestMessagesRequired:
    def test_small_model_single_round(self):
        # 0.70 KB model, SF7, one round -> 4 messages either way
        for convention in ("per_round", "total"):
            assert messages_required(0.70 * 1024, 1, PROFILES[7], convention) == 4

    @pytest.mark.parametrize(
        "kb,sf,rounds,expected",
        [(1.39, 7, 80, 513), (1.39, 12, 80, 2233), (5.52, 12, 80, 8867)],
    )
    def test_published_totals(self, kb, sf, rounds, expected):
        assert messages_required(kb * 1024, rounds, PROFILES[sf], "total") == expected

    def test_per_round_ceils_each_round(self):
        assert messages_required(1.39 * 1024, 80, PROFILES[7]) == math.ceil(1.39 * 1024 / 222) * 80

    def test_total_never_exceeds_per_round(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(300):
            nbytes = float(rng.uniform(1, 50_000))
            rounds = int(rng.integers(1, 100))
            sf = int(rng.integers(7, 13))
            total = messages_required(nbytes, rounds, PROFILES[sf], "total")
            per_round = messages_required(nbytes, rounds, PROFILES[sf], "per_round")
            assert total <= per_round

    def test_monotone_in_size_and_rounds(self):
        base = messages_required(1000, 10, PROFILES[9], "total")
        assert messages_required(2000, 10, PROFILES[9], "total") >= base
        assert messages_required(1000, 20, PROFILES[9], "total") >= base

    def test_validation(self):
        with pytest.raises(ValueError):
            messages_required(0, 1, PROFILES[7])
        with pytest.raises(ValueError):
            messages_required(100, 0, PROFILES[7])
        with pytest.raises(ValueError):
            messages_required(100, 1, PROFILES[7], "sideways")

    @pytest.mark.parametrize("model_bytes", [math.inf, math.nan])
    def test_non_finite_size_rejected(self, model_bytes):
        with pytest.raises(ValueError, match="model_bytes"):
            messages_required(model_bytes, 1, PROFILES[7])

    def test_infinite_size_rejected_by_plan_table(self):
        with pytest.raises(ValueError, match="model_bytes"):
            plan_table([math.inf], [7], [1])

    @pytest.mark.parametrize("rounds", [1.5, 2.0, True])
    def test_non_integer_rounds_rejected(self, rounds):
        with pytest.raises(ValueError, match="rounds"):
            messages_required(100, rounds, PROFILES[7])

    @pytest.mark.parametrize("model_bytes,rounds", [(1e308, 1000), (100.0, 10**400)], ids=["bytes", "rounds"])
    def test_total_volume_beyond_float_rejected(self, model_bytes, rounds):
        with pytest.raises(ValueError, match="model_bytes \\* rounds"):
            messages_required(model_bytes, rounds, PROFILES[7], "total")

    def test_total_volume_beyond_float_rejected_by_plan_table(self):
        with pytest.raises(ValueError, match="model_bytes \\* rounds"):
            plan_table([1e308], [7], [1000], "total")


class TestTrainingHours:
    def test_zero_messages(self):
        assert training_hours(0, PROFILES[7]) == 0.0

    def test_sf7_513_messages(self):
        assert training_hours(513, PROFILES[7]) == pytest.approx(0.8835, abs=1e-4)
        assert training_hours(513, PROFILES[7]) * 60 == pytest.approx(53.01, abs=0.01)

    def test_sf12_100_messages(self):
        assert training_hours(100, PROFILES[12]) == pytest.approx(4.1194, abs=1e-4)

    def test_linear_in_messages(self):
        one = training_hours(1, PROFILES[10])
        assert training_hours(37, PROFILES[10]) == pytest.approx(37 * one, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            training_hours(-1, PROFILES[7])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="message count"):
            training_hours(math.nan, PROFILES[7])

    def test_count_beyond_float_rejected(self):
        with pytest.raises(ValueError, match="message count"):
            training_hours(10**400, PROFILES[7])

    def test_hours_beyond_float_rejected(self):
        with pytest.raises(ValueError, match="message count"):
            training_hours(1e307, PROFILES[12])

    def test_count_beyond_float_rejected_by_plan_table(self):
        # per_round counts are exact ints; 1e308 bytes over 1,000 rounds is one beyond float
        with pytest.raises(ValueError, match="message count"):
            plan_table([1e308], [7], [1000])


class TestFragmentation:
    def test_1428_bytes_at_sf7(self):
        plan = fragmentation_plan(1428, PROFILES[7])
        assert plan == [222] * 6 + [96]
        assert len(plan) == 7

    def test_exact_payload_single_fragment(self):
        assert fragmentation_plan(222, PROFILES[7]) == [222]

    def test_sizes_sum_to_input(self):
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(100):
            nbytes = int(rng.integers(1, 10_000))
            sf = int(rng.integers(7, 13))
            plan = fragmentation_plan(nbytes, PROFILES[sf])
            assert sum(plan) == nbytes
            assert all(f <= PROFILES[sf].max_payload for f in plan)
            assert all(f == PROFILES[sf].max_payload for f in plan[:-1])

    def test_count_matches_single_round_messages(self):
        for nbytes in (1, 221, 222, 223, 1428, 5652):
            plan = fragmentation_plan(nbytes, PROFILES[7])
            assert len(plan) == messages_required(float(nbytes), 1, PROFILES[7])

    @given(
        nbytes=st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
        sf=st.sampled_from(sorted(PROFILES)),
    )
    @settings(max_examples=200, deadline=None)
    def test_fractional_size_counts_a_whole_byte(self, nbytes, sf):
        plan = fragmentation_plan(nbytes, PROFILES[sf])
        assert len(plan) == messages_required(nbytes, 1, PROFILES[sf])
        assert sum(plan) == math.ceil(nbytes)

    def test_half_byte_is_one_fragment(self):
        assert fragmentation_plan(0.5, PROFILES[7]) == [1]

    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            fragmentation_plan(0, PROFILES[7])

    @pytest.mark.parametrize("model_bytes", [math.inf, math.nan])
    def test_non_finite_size_rejected(self, model_bytes):
        with pytest.raises(ValueError, match="model_bytes"):
            fragmentation_plan(model_bytes, PROFILES[7])

    @pytest.mark.parametrize("model_bytes", [1e300, 1e308])
    def test_fragment_count_beyond_index_rejected(self, model_bytes):
        # the list's length overflows an index before anything is allocated
        with pytest.raises(ValueError, match="model_bytes"):
            fragmentation_plan(model_bytes, PROFILES[7])

    @pytest.mark.parametrize("sf", [7, 12])
    def test_fragment_cap(self, sf):
        profile = PROFILES[sf]
        payload = profile.max_payload
        assert fragmentation_plan(MAX_FRAGMENTS * payload, profile) == [payload] * MAX_FRAGMENTS
        plan = fragmentation_plan((MAX_FRAGMENTS - 1) * payload + 0.5, profile)
        assert len(plan) == MAX_FRAGMENTS and plan[-1] == 1
        # one byte more needs one fragment more
        with pytest.raises(ValueError, match=f"model_bytes.*{MAX_FRAGMENTS} fragments"):
            fragmentation_plan(MAX_FRAGMENTS * payload + 1, profile)

    def test_largest_published_plan_is_under_the_cap(self):
        # the 5.52 KB model (1413 float32 parameters) at SF12
        assert len(fragmentation_plan(1413 * 4, PROFILES[12])) == 111 < MAX_FRAGMENTS

    def test_count_above_cap_raises_before_allocating(self):
        # the list just above the cap would take 8 bytes a fragment, 512 KB
        size = (MAX_FRAGMENTS + 1) * PROFILES[7].max_payload
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="model_bytes"):
                fragmentation_plan(size, PROFILES[7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestPlanTable:
    def test_single_cell_matches_direct_calls(self):
        rows = plan_table([ArchSpec(hidden_sizes=(32,))], [7], [80], "total")
        assert len(rows) == 1
        row = rows[0]
        assert row["params"] == 357
        assert row["bytes"] == 1428.0
        assert row["messages"] == messages_required(1428.0, 80, PROFILES[7], "total")
        assert row["hours"] == training_hours(row["messages"], PROFILES[7])

    def test_explicit_byte_sizes_accepted(self):
        rows = plan_table([0.70 * 1024], [7], [1], "total")
        assert rows[0]["messages"] == 4
        assert rows[0]["params"] == ""

    def test_messages_monotone_in_sf_payload(self):
        rows = plan_table([ArchSpec(hidden_sizes=(64,))], [7, 9, 12], [10], "per_round")
        messages = [r["messages"] for r in rows]
        assert messages == sorted(messages)

    def test_cartesian_product_shape(self):
        rows = plan_table(
            [ArchSpec(hidden_sizes=(h,)) for h in (16, 32)], [7, 12], [1, 80], "per_round"
        )
        assert len(rows) == 8
        assert {r["convention"] for r in rows} == {"per_round"}

    def test_published_spot_checks_across_table(self):
        archs = [ArchSpec(hidden_sizes=(h,)) for h in (16, 32, 64, 128)]
        rows = plan_table(archs, [7, 12], [1, 80], "total")
        by_key = {(r["hidden"], r["sf"], r["rounds"]): r["messages"] for r in rows}
        # exact-bytes variants of the published spot values
        assert by_key[(16, 7, 1)] == 4  # 724 B in 222-B payloads
        assert by_key[(32, 7, 80)] == math.ceil(1428 * 80 / 222)
        assert by_key[(32, 12, 80)] == math.ceil(1428 * 80 / 51)
        assert by_key[(128, 12, 80)] == math.ceil(5652 * 80 / 51)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            plan_table([], [7], [1])
        with pytest.raises(ValueError):
            plan_table([ArchSpec()], [], [1])
