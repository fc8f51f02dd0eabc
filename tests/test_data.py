import numpy as np
import pytest

from labelmoments import ContractError, SourceMatrix, load_source_matrix

from conftest import matrix_from_state_counts, state_counts


@pytest.fixture
def small():
    rng = np.random.default_rng(3)
    values = rng.choice([-1, 1], size=(40, 5))
    labels = rng.choice([-1, 1], size=40)
    return SourceMatrix(values, labels)


class TestValidation:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ContractError):
            SourceMatrix(np.array([[1, 0], [1, -1]]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ContractError):
            SourceMatrix(np.array([[1, -1]]), np.array([2]))
        with pytest.raises(ContractError):
            SourceMatrix(np.array([[1, -1]]), np.array([1, -1]))

    @pytest.mark.parametrize("values", [[[257, 1]], [[1.7, -1]], [[1, 0.5]]])
    def test_checks_entries_before_the_int8_cast(self, values):
        with pytest.raises(ContractError):
            SourceMatrix(np.array(values))

    def test_accepts_float_signs(self):
        matrix = SourceMatrix(np.array([[1.0, -1.0]]), np.array([-1.0]))
        np.testing.assert_array_equal(matrix.values, [[1, -1]])
        assert matrix.values.dtype == np.int8 and matrix.labels.dtype == np.int8

    def test_rejects_fractional_label(self):
        with pytest.raises(ContractError):
            SourceMatrix(np.array([[1, -1]]), np.array([1.5]))

    def test_require_labels(self, small):
        assert small.require_labels().shape == (40,)
        with pytest.raises(ContractError):
            SourceMatrix(small.values).require_labels()


class TestRoundTrips:
    def test_csv(self, tmp_path, small):
        path = tmp_path / "d.csv"
        small.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "lf_0,lf_1,lf_2,lf_3,lf_4,y"
        back = SourceMatrix.from_csv(path)
        np.testing.assert_array_equal(back.values, small.values)
        np.testing.assert_array_equal(back.labels, small.labels)

    def test_csv_unlabeled(self, tmp_path, small):
        path = tmp_path / "d.csv"
        SourceMatrix(small.values).to_csv(path)
        back = SourceMatrix.from_csv(path)
        assert back.labels is None
        np.testing.assert_array_equal(back.values, small.values)

    def test_binary(self, tmp_path, small):
        path = tmp_path / "d.bin"
        small.to_binary(path)
        back = SourceMatrix.from_binary(path)
        np.testing.assert_array_equal(back.values, small.values)
        np.testing.assert_array_equal(back.labels, small.labels)

    def test_binary_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(ContractError):
            SourceMatrix.from_binary(path)

    @pytest.mark.parametrize("cut", [1, 5, 10])
    def test_binary_truncated(self, tmp_path, small, cut):
        path = tmp_path / "d.bin"
        small.to_binary(path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ContractError, match="d.bin"):
            SourceMatrix.from_binary(path)

    def test_binary_trailing_bytes(self, tmp_path, small):
        path = tmp_path / "d.bin"
        small.to_binary(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContractError, match="d.bin"):
            SourceMatrix.from_binary(path)

    @pytest.mark.parametrize("text", [
        "lf_0,lf_1,y\n",                # header only
        "lf_0,lf_1,y\n1,-1\n",          # short row
        "lf_0,lf_1\n1,x\n",             # not an integer
    ])
    def test_csv_malformed_body(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ContractError, match="d.csv"):
            SourceMatrix.from_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("lf_0,lf_1,y\n1,-1,1\n1,1\n", "row 2 has 2 columns, the header 3"),
        ("lf_0,lf_1\n1,-1\n\n# a comment\n-1,1,1\n1,1\n", "row 2 has 3 columns, the header 2"),
        ("lf_0,lf_1,lf_2\n1,-1\n1,1,1\n", "row 1 has 2 columns, the header 3"),
    ])
    def test_csv_ragged_rows_are_named(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ContractError) as info:
            SourceMatrix.from_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_sniffing_loader(self, tmp_path, small):
        csv_path, bin_path = tmp_path / "d.csv", tmp_path / "d.bin"
        small.to_csv(csv_path)
        small.to_binary(bin_path)
        for path in (csv_path, bin_path):
            back = load_source_matrix(path)
            np.testing.assert_array_equal(back.values, small.values)


class TestStateCounts:
    def test_counts_round_trip(self, small):
        counts = state_counts(small)
        assert counts.sum() == small.n
        back = matrix_from_state_counts(counts, small.m)
        # same multiset of rows (counts ignore order)
        np.testing.assert_array_equal(state_counts(back), counts)

    def test_state_index_in_row_order(self, small):
        expected = [
            sum(1 << k for k in range(small.m) if row[k] > 0) + ((y > 0) << small.m)
            for row, y in zip(small.values, small.labels)
        ]
        np.testing.assert_array_equal(small.state_index(), expected)
        with pytest.raises(ContractError):
            SourceMatrix(small.values).state_index()

    def test_config_counts_marginalize(self, small):
        sc = state_counts(small).reshape(2, -1).sum(axis=0)
        np.testing.assert_array_equal(sc, small.config_counts())
