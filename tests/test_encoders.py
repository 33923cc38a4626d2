import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neca.dataset import make_cad
from neca.encoders import encode_frequency, encode_onehot
from oracles import records


class TestOneHot:
    def test_toy_first_row_blocks(self, toy_cad):
        enc = encode_onehot(toy_cad)
        assert enc.method == "onehot"
        assert enc.vectors.shape == (6, 10)
        # John: M first-seen, Engineering first-seen, Programmer first-seen
        np.testing.assert_array_equal(
            enc.vectors[0], [1, 0, 1, 0, 0, 1, 0, 0, 0, 0])

    def test_row_sums_equal_m(self, toy_cad):
        enc = encode_onehot(toy_cad)
        np.testing.assert_array_equal(enc.vectors.sum(axis=1), np.full(6, 3.0))

    def test_identical_records_identical_rows(self, toy_cad):
        enc = encode_onehot(toy_cad)
        np.testing.assert_array_equal(enc.vectors[0], enc.vectors[3])  # John, Ben

    def test_rows_are_binary_with_v_minus_m_zeros(self, toy_cad):
        enc = encode_onehot(toy_cad)
        assert set(np.unique(enc.vectors)) == {0.0, 1.0}
        assert np.all((enc.vectors == 0).sum(axis=1) == 10 - 3)


class TestFrequency:
    def test_worked_example_100_over_40(self):
        # 100 records; one token appears exactly 40 times
        rows = [("common",)] * 40 + [(f"rare{i}",) for i in range(60)]
        cad = make_cad(rows, ("Specialty",))
        enc = encode_frequency(cad)
        assert enc.vectors[0, 0] == pytest.approx(math.log(100 / 40), abs=1e-12)

    def test_universal_token_encodes_zero(self):
        cad = make_cad([("x",)] * 7, ("A",))
        np.testing.assert_allclose(encode_frequency(cad).vectors, 0.0, atol=1e-15)

    def test_toy_female_value(self, toy_cad):
        enc = encode_frequency(toy_cad)
        alisa = enc.vectors[2]  # F, Liberal Arts, Lawyer
        assert alisa[0] == pytest.approx(math.log(3), abs=1e-12)

    def test_width_is_m(self, toy_cad):
        enc = encode_frequency(toy_cad)
        assert enc.vectors.shape == (6, 3)

    def test_rarity_monotonicity(self, toy_cad):
        enc = encode_frequency(toy_cad)
        # Science (1 occurrence) must encode strictly above Engineering (3)
        tony, john = enc.vectors[1], enc.vectors[0]
        assert tony[1] > john[1]

    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_lower_count_strictly_larger_value(self, tokens):
        cad = make_cad([(t,) for t in tokens], ("A",))
        enc = encode_frequency(cad)
        counts = {t: tokens.count(t) for t in set(tokens)}
        values = {t: enc.vectors[tokens.index(t), 0] for t in counts}
        for t1 in counts:
            for t2 in counts:
                if counts[t1] < counts[t2]:
                    assert values[t1] > values[t2]


class TestDeterminism:
    def test_encoders_label_blind_and_deterministic(self, toy_cad):
        labeled = make_cad(list(records(toy_cad)), toy_cad.attribute_names,
                           labels=("p", "q", "p", "q", "p", "q"))
        np.testing.assert_array_equal(encode_onehot(toy_cad).vectors,
                                      encode_onehot(labeled).vectors)
        np.testing.assert_array_equal(encode_frequency(toy_cad).vectors,
                                      encode_frequency(labeled).vectors)

