"""Dataset construction, CSV round-trips, row draws, synthetic benchmark."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explor import data
from explor.data import (
    Dataset,
    DatasetError,
    _read_csv,
    draw,
    fraction_count,
    load_csv,
    load_features,
    make_synthetic_radial,
    same_kind,
    save_csv,
    write_csv,
)
from explor.seeding import generator

rng = np.random.default_rng(42)


def small_ds(n=10, d=4, seed=0):
    r = np.random.default_rng(seed)
    return Dataset(r.standard_normal((n, d)), r.integers(0, 2, n))


class TestDataset:
    def test_shapes_and_dtypes(self):
        ds = small_ds()
        assert ds.features.dtype == np.float64
        assert ds.n == 10 and ds.d == 4
        assert set(np.unique(ds.labels)) <= {0, 1}

    def test_immutable(self):
        ds = small_ds()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_rejects_nonfinite(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(DatasetError, match="row 1, column 1"):
            Dataset(X, [0, 1, 0])

    def test_rejects_bad_labels(self):
        with pytest.raises(DatasetError, match="label"):
            Dataset(np.ones((2, 2)), [0, 2])

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((0, 2)), [])

    def test_fractional_labels_rejected_not_truncated(self):
        with pytest.raises(DatasetError, match="label outside {0, 1} at row 0"):
            Dataset(np.zeros((3, 2)), [0.5, 1.7, 0.2])

    def test_take_rows(self):
        ds = Dataset(np.arange(40.0).reshape(10, 4), [0, 1] * 5, feature_names=list("abcd"))
        sub = ds.take([5, 2])
        assert sub.n == 2 and sub.d == 4 and sub.feature_names == list("abcd")
        assert np.array_equal(sub.features, ds.features[[5, 2]])
        assert np.array_equal(sub.labels, ds.labels[[5, 2]])


class TestCsvRoundtrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        """save_csv writes repr floats, so a reload is bit-identical."""
        ds = Dataset(rng.standard_normal((20, 3)) * 1e3, rng.integers(0, 2, 20))
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ["x0", "x1", "x2"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    @example(data=None)
    def test_roundtrip_property(self, tmp_path_factory, data):
        """Any finite features, 0/1 labels and distinct names load back as saved."""
        if data is None:  # pinned: signed zero, the smallest and largest subnormals, ±1e308
            X = np.array([[-0.0, 5e-324], [1e308, -1e308], [-2.225073858507201e-308, 0.0]])
            y, names = np.array([0, 1, 1]), ["a b", 'q,"x"']
        else:
            n = data.draw(st.integers(1, 8), label="n")
            d = data.draw(st.integers(1, 4), label="d")
            floats = st.floats(allow_nan=False, allow_infinity=False)
            X = np.array(data.draw(st.lists(st.lists(floats, min_size=d, max_size=d), min_size=n, max_size=n)))
            y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            name = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6).filter(
                lambda s: s == s.strip() and s != "label")
            names = data.draw(st.none() | st.lists(name, min_size=d, max_size=d, unique=True))
        ds = Dataset(X, y, feature_names=names)
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.feature_names == (ds.feature_names or [f"x{j}" for j in range(ds.d)])

    @pytest.mark.parametrize("names", [["x0", "label"], ["x0", " label "]],
                             ids=["feature_is_label", "stripped_feature_is_label"])
    def test_save_rejects_a_header_it_cannot_read(self, tmp_path, names):
        ds = Dataset(np.zeros((2, 2)), [0, 1], feature_names=names)
        path = tmp_path / "x.csv"
        with pytest.raises(DatasetError, match="would appear 2 times"):
            save_csv(ds, path)
        assert not path.exists()

    def test_feature_named_group_is_written_without_groups(self, tmp_path):
        ds = Dataset(np.ones((2, 1)), [0, 1], feature_names=["group"])
        save_csv(ds, tmp_path / "x.csv")
        assert load_csv(tmp_path / "x.csv").feature_names == ["group"]

    @pytest.mark.parametrize("header", ["label,a,label", "a, label,label"])
    def test_load_rejects_label_named_twice(self, tmp_path, header):
        path = tmp_path / "x.csv"
        path.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        with pytest.raises(DatasetError, match="appears 2 times"):
            load_csv(path)
        with pytest.raises(DatasetError, match="appears 2 times"):
            load_features(path)

    def test_true_false_labels(self, tmp_path):
        path = tmp_path / "tf.csv"
        path.write_text("a,b,label\n1.0,2.0,true\n3.0,4.0,FALSE\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [1, 0]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="label"):
            load_csv(path)

    def test_features_with_or_without_label_column(self, tmp_path):
        (tmp_path / "with.csv").write_text("a,label,b\n1.5,1,2\n-3,0,4e-3\n")
        (tmp_path / "without.csv").write_text("a,b\n1.5,2\n-3,4e-3\n")
        expect = load_csv(tmp_path / "with.csv").features
        assert load_features(tmp_path / "with.csv").tobytes() == expect.tobytes()
        assert load_features(tmp_path / "without.csv").tobytes() == expect.tobytes()

    def test_features_checked_like_load_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1.0,nan\n")
        with pytest.raises(DatasetError, match="non-finite feature at row 0, column 1"):
            load_features(path)
        path.write_text("a,b,label\n1.0,2.0,yes\n")
        with pytest.raises(DatasetError, match="label"):
            load_features(path)

    def test_bad_feature_reports_location(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,label\n1.0,2.0,1\n1.0,oops,0\n")
        with pytest.raises(DatasetError, match="line 3, column 'b'"):
            load_csv(path)

    def test_bad_label_reports_location(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,label\n1.0,1\n2.0,7\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,label\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(path)


def read_outcome(path, label_required):
    """What ``_read_csv`` gives on ``path``: its arrays as bytes and the names, or the error."""
    try:
        X, labels, names = _read_csv(path, "label", label_required)
    except DatasetError as exc:
        return str(exc)
    as_bytes = [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in (X, labels)]
    return as_bytes, names


def assert_read_as_the_loop(path, label_required):
    """Check that ``_read_csv`` gives what its per-record loop alone gives; returns what ``_convert_chunk`` returned."""
    calls = []
    with mock.patch.object(data, "_convert_chunk", spy_chunks(calls)):
        fast = read_outcome(path, label_required)
    with mock.patch.object(data, "_convert_chunk", lambda *args: None):
        assert fast == read_outcome(path, label_required)
    return calls


def spy_chunks(calls):
    """``_convert_chunk`` recording each result in ``calls``."""
    real = data._convert_chunk

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    return spy


PLAIN_CELLS = {"feature": ["1.5", "-0.0", "7", "1e-300"], "label": ["0", "1"]}
# Cells that the chunk converter must parse, or decline to the loop, exactly as the loop does.
ODD_CELLS = {
    "feature": ["5e-324", " 2 ", "1_0", "١٢", "+.5", "1e999", "nan", "-inf", "0x10", "", "x", "1.0\x00", '"3.5"',
                '"1,5"', "2\r"],
    "label": [" 1", "1 ", "true", "FALSE", "1_0", "1.0", "2", "", '"1"', "0\x00"],
}


class TestChunkedReader:
    """Where the chunk converter of ``_read_csv`` returns, it returns what the per-record loop returns."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        width=st.integers(1, 3),
        label_at=st.none() | st.integers(0, 3),
        quoted_header=st.booleans(),
        data_=st.data(),
        newline=st.sampled_from(["\n", "\r\n"]),
        chunk=st.sampled_from([1, 2, 3, 512]),
        final_newline=st.booleans(),
    )
    def test_chunks_read_as_the_cell_loop(self, tmp_path_factory, width, label_at, quoted_header, data_,
                                          newline, chunk, final_newline):
        names = ['"a\nb"' if quoted_header else "a"] + [f"x{j}" for j in range(1, width)]
        roles = ["feature"] * width
        if label_at is not None:
            at = min(label_at, len(names))
            names.insert(at, "label")
            roles.insert(at, "label")
        # A plain file, then at most one change: an odd cell, a blank line, or a short or long row.
        rows = [[data_.draw(st.sampled_from(PLAIN_CELLS[role])) for role in roles] for _ in range(data_.draw(st.integers(0, 5)))]
        lines = [",".join(row) for row in rows]
        change = data_.draw(st.sampled_from(["none", "cell", "cell", "blank", "short", "long"]) if rows else st.just("none"))
        if change != "none":
            at = data_.draw(st.integers(0, len(rows) - 1))
            if change == "cell":
                j = data_.draw(st.integers(0, len(roles) - 1))
                rows[at][j] = data_.draw(st.sampled_from(ODD_CELLS[roles[j]]))
                lines[at] = ",".join(rows[at])
            elif change == "blank":
                lines.insert(at, data_.draw(st.sampled_from(["", "  "])))
            elif change == "short":
                lines[at] = ",".join(rows[at][:-1])
            else:
                lines[at] += ",1"
        text = newline.join([",".join(names), *lines]) + (newline if final_newline else "")
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(text.encode())
        for label_required in (True, False):
            with mock.patch.object(data, "CSV_CHUNK", chunk):
                calls = assert_read_as_the_loop(path, label_required)
            if change == "none" and rows and (label_at is not None or not label_required):
                assert calls and None not in calls  # every chunk of a plain file is converted at once

    @pytest.mark.parametrize("role,cell", [(role, cell) for role, cells in ODD_CELLS.items() for cell in cells])
    def test_each_odd_cell_reads_as_the_cell_loop(self, tmp_path, role, cell):
        rows = [["1.5", "0", "1"], ["-0.0", "1", "0"], ["7", "2", "1"]]
        rows[1][{"feature": 1, "label": 2}[role]] = cell
        path = tmp_path / "x.csv"
        path.write_bytes(("a,b,label\n" + "".join(",".join(row) + "\n" for row in rows)).encode())
        for label_required in (True, False):
            assert_read_as_the_loop(path, label_required)

    def test_plain_file_takes_the_chunked_path(self, tmp_path):
        ds = Dataset(rng.standard_normal((3000, 4)), rng.integers(0, 2, 3000))
        save_csv(ds, tmp_path / "x.csv")
        calls = []
        with mock.patch.object(data, "_convert_chunk", spy_chunks(calls)):
            back = load_csv(tmp_path / "x.csv")
        assert len(calls) == math.ceil(3000 / data.CSV_CHUNK) and None not in calls
        assert back.features.tobytes() == ds.features.tobytes() and back.labels.tobytes() == ds.labels.tobytes()

    def test_short_row_after_the_first_chunk_keeps_its_line(self, tmp_path):
        path = tmp_path / "x.csv"
        lines = ["a,b,label"] + [f"{i}.5,{i},{i % 2}" for i in range(6000)]
        lines[4999] = "1.5,0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r": line 5000 has 2 fields, expected 3$"):
            load_csv(path)
        lines[4999] = "1.5,oops,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r": line 5000, column 'b': not a number: 'oops'$"):
            load_features(path)


    @pytest.mark.parametrize("reader", [load_csv, load_features])
    def test_undecodable_byte_names_its_offset_in_the_file(self, tmp_path, reader):
        """The decoder reads ahead in blocks; the message still gives the byte's offset from the file's start."""
        body = "".join(f"{i}.25,{i % 2}\n" for i in range(5000)).encode()
        raw = bytearray("caf\u00e9,label\n".encode() + body)  # a two-byte character before the bad byte
        at = 30_000
        raw[at] = 0xFF
        path = tmp_path / "bad.csv"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: byte {at} is not utf-8 text \(invalid start byte\)$"):
            reader(path)


class TestWriteCsv:
    def test_columns_and_chunks(self, tmp_path):
        """Floats as repr, ints as digits, strings as they are; a quoted header; (N, 0) blocks write nothing."""
        path = tmp_path / "x.csv"
        n = 2 * data.CSV_CHUNK + 3
        ints, floats = np.arange(n), np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
        write_csv(path, ["i", "a,b", "c"], [ints, np.empty((n, 0)), floats, np.full(n, "t")])
        want = ['i,"a,b",c'] + [f"{i},{x!r},{y!r},t" for i, (x, y) in zip(range(n), floats.tolist())]
        assert path.read_text() == "\n".join(want) + "\n"


class TestSubsample:
    """``fraction_count`` is the one rule for a fraction of n items, ``draw`` the one draw of them."""

    def test_counts_are_ceil(self):
        """The fraction's decimal value times n, rounded up."""
        assert fraction_count(0.632, 10) == 7
        assert fraction_count(0.5, 4) == 2
        assert fraction_count(0.01, 1) == 1
        # 0.07 * 100 is 7.000000000000001 in doubles; the count is still 7.
        assert 0.07 * 100 > 7 and fraction_count(0.07, 100) == 7

    @pytest.mark.parametrize("fraction", [0.632, 0.5, 0.8])
    def test_default_fractions_count_as_the_double_product(self, fraction):
        """The labeler and stability defaults count ``ceil(f * n)`` for every n they meet, so draws keep their rows."""
        assert all(fraction_count(fraction, n) == math.ceil(fraction * n) for n in range(20_001))

    def test_sorted_unique_indices(self):
        for seed in range(20):
            for n, count in ((50, 20), (8, 5)):
                idx = draw(n, count, generator(seed))
                assert idx.size == count and np.array_equal(idx, np.unique(idx))
                assert 0 <= idx[0] and idx[-1] < n

    def test_values_match_parent(self):
        ds = small_ds(n=30, d=6)
        rows = draw(ds.n, fraction_count(0.5, ds.n), generator(3))
        sub = ds.take(rows)
        assert np.array_equal(sub.features, ds.features[rows])
        assert np.array_equal(sub.labels, ds.labels[rows])

    def test_same_seed_same_draw(self):
        assert np.array_equal(draw(40, 12, generator(9)), draw(40, 12, generator(9)))
        assert not np.array_equal(draw(40, 12, generator(9)), draw(40, 12, generator(10)))

    def test_full_fraction_keeps_everything(self):
        assert np.array_equal(draw(12, fraction_count(1.0, 12), generator(0)), np.arange(12))

    def test_bad_fraction_rejected(self):
        for fraction in (0.0, 1.2, True, -0.5, float("nan"), "0.5"):
            with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
                fraction_count(fraction, 10)


class TestSameKind:
    """The one kind rule of config fields, config keys and bundle fields."""

    @pytest.mark.parametrize("default,value,want", [
        (0, np.int64(3), True), (0, np.uint8(3), True), (0, 3.0, False), (0, True, False), (0, np.True_, False),
        (0.5, 1, True), (0.5, np.float32(0.25), True), (0.5, np.int32(2), True),
        (0.5, True, False), (0.5, np.True_, False), (0.5, "0.5", False),
        (0.5, float("nan"), False), (0.5, np.float32("inf"), False), (0.5, 10**400, False),
        ((8,), [4, np.int32(2)], True), ((8,), (4, 2.0), False), ((8,), 8, False),
        ([[0.0]], [[1, 2.5]], True), ([[0.0]], [["a"]], False), ([[0.0]], "xyz", False),
        (True, False, True), (True, 1, False), ("full", "x", True), ("full", 3, False),
    ])
    def test_table(self, default, value, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_kind(default, value) is want


class TestSyntheticRadial:
    def test_norm_separation(self):
        """Every OOD test point lies at or beyond the largest train norm."""
        train, ood = make_synthetic_radial(1000, 1000, 8, seed=7)
        assert train.n == 1000 and ood.n == 1000 and train.d == 8
        tr = np.linalg.norm(train.features, axis=1)
        te = np.linalg.norm(ood.features, axis=1)
        assert tr.max() < te.min()

    def test_labels_follow_rule(self):
        train, ood = make_synthetic_radial(200, 200, 4, seed=3)
        for ds in (train, ood):
            want = (np.sin(3.0 * ds.features[:, 0]) + 0.5 * ds.features[:, 1] > 0).astype(int)
            assert np.array_equal(ds.labels, want)

    def test_both_classes_in_train_and_a_positive_ood(self):
        for seed in range(5):
            train, ood = make_synthetic_radial(50, 50, 3, seed=seed)
            assert set(np.unique(train.labels)) == {0, 1}
            assert ood.labels.sum() >= 1

    def test_deterministic(self):
        a_train, a_ood = make_synthetic_radial(100, 100, 5, seed=11)
        b_train, b_ood = make_synthetic_radial(100, 100, 5, seed=11)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_ood.features, b_ood.features)
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_unequal_sizes(self):
        train, ood = make_synthetic_radial(300, 60, 4, seed=2)
        assert train.n == 300 and ood.n == 60

    def test_pathological_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_radial(5, 100, 4, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_radial(100, 100, 1, seed=0)

    @pytest.mark.parametrize("args,name", [
        ((10.5, 10, 2), "n_id"), ((10, True, 2), "n_ood"), ((10, 10, 2.0), "d"), ((10, 10, "3"), "d"),
    ])
    def test_non_integer_sizes_rejected_naming_the_argument(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            make_synthetic_radial(*args, 0)
