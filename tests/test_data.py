from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandem.data import (
    CATEGORICAL,
    CLASSIFICATION,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LINEAR_LOGIT,
    LINEAR_REGRESSION,
    NONLINEAR,
    NUMERIC,
    REGRESSION,
    SPLIT_TAGS,
    SYNTHETIC_KINDS,
    TARGET,
    TEST,
    TRAIN,
    VAL,
    ColumnSpec,
    Dataset,
    _interleave_groups,
    _largest_remainder_counts,
    binarize_label,
    column_levels,
    dataset_from_csv,
    load_csv,
    load_idx,
    make_synthetic,
    one_hot,
    split,
    standardize,
    subset,
)
from tandem.errors import DataError, IdxFormatError
from tandem.seeding import rng_for


def plain_dataset(features, targets, task, tags=None):
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if tags is None:
        tags = [TRAIN] * n
    return Dataset(
        features=features,
        targets=np.asarray(targets, dtype=np.float64),
        task=task,
        feature_names=tuple(f"x{i}" for i in range(d)),
        split=np.asarray(tags, dtype=object),
    )


# -- CSV parsing --------------------------------------------------------------

SCHEMA = (
    ColumnSpec("age", NUMERIC),
    ColumnSpec("workclass", CATEGORICAL),
    ColumnSpec("income", TARGET),
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_three_known_rows(tmp_path):
    path = write_csv(
        tmp_path / "adult.csv",
        "age,workclass,income\n39, State-gov ,<=50K\n50,Self-emp,>50K\n38,Private,<=50K\n",
    )
    table = load_csv(path, SCHEMA)
    assert table.n_rows == 3
    assert np.array_equal(table.columns["age"], np.array([39.0, 50.0, 38.0]))
    assert list(table.columns["workclass"]) == ["State-gov", "Self-emp", "Private"]
    assert list(table.columns["income"]) == ["<=50K", ">50K", "<=50K"]


def test_load_csv_missing_cell_names_the_row(tmp_path):
    path = write_csv(
        tmp_path / "bad.csv",
        "age,workclass,income\n39,State-gov,<=50K\n50,,>50K\n",
    )
    with pytest.raises(DataError, match="row 2.*workclass"):
        load_csv(path, SCHEMA)


def test_load_csv_header_must_match_schema(tmp_path):
    path = write_csv(tmp_path / "bad.csv", "age,job,income\n39,x,<=50K\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, SCHEMA)


def test_load_csv_rejects_undeclared_level(tmp_path):
    schema = (
        ColumnSpec("age", NUMERIC),
        ColumnSpec("workclass", CATEGORICAL, levels=("Private", "State-gov")),
        ColumnSpec("income", TARGET),
    )
    path = write_csv(
        tmp_path / "bad.csv",
        "age,workclass,income\n39,Federal,<=50K\n",
    )
    with pytest.raises(DataError, match="row 1.*Federal"):
        load_csv(path, schema)


def test_load_csv_rejects_non_numeric_cell(tmp_path):
    path = write_csv(
        tmp_path / "bad.csv", "age,workclass,income\nforty,Private,<=50K\n"
    )
    with pytest.raises(DataError, match="age"):
        load_csv(path, SCHEMA)


def test_schema_requires_exactly_one_target(tmp_path):
    path = write_csv(tmp_path / "x.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="target"):
        load_csv(path, (ColumnSpec("a", NUMERIC), ColumnSpec("b", NUMERIC)))


def test_adult_format_fixture_level_inventory(tmp_path):
    path = write_csv(
        tmp_path / "adult.csv",
        "age,workclass,income\n"
        "39,State-gov,<=50K\n"
        "50,Self-emp,>50K\n"
        "38,Private,<=50K\n"
        "53,Private,>50K\n",
    )
    table = load_csv(path, SCHEMA)
    assert column_levels(table, "workclass") == ("Private", "Self-emp", "State-gov")


# -- one-hot encoding ---------------------------------------------------------


def three_level_table(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "color,y\nred,0\ngreen,1\nblue,0\ngreen,1\n",
    )
    return load_csv(path, (ColumnSpec("color", CATEGORICAL), ColumnSpec("y", TARGET)))


def test_one_hot_three_levels_partition(tmp_path):
    encoded = one_hot(three_level_table(tmp_path))
    indicator_names = [c.name for c in encoded.schema if c.name.startswith("color=")]
    assert indicator_names == ["color=blue", "color=green", "color=red"]
    matrix = np.column_stack([encoded.columns[n] for n in indicator_names])
    assert np.array_equal(matrix.sum(axis=1), np.ones(4))


def test_one_hot_exact_matrix(tmp_path):
    encoded = one_hot(three_level_table(tmp_path))
    expected = {
        "color=blue": [0.0, 0.0, 1.0, 0.0],
        "color=green": [0.0, 1.0, 0.0, 1.0],
        "color=red": [1.0, 0.0, 0.0, 0.0],
    }
    for name, column in expected.items():
        assert np.array_equal(encoded.columns[name], np.array(column))


def test_one_hot_single_level_gives_all_ones(tmp_path):
    path = write_csv(tmp_path / "t.csv", "c,y\nonly,0\nonly,1\n")
    table = load_csv(path, (ColumnSpec("c", CATEGORICAL), ColumnSpec("y", TARGET)))
    encoded = one_hot(table)
    assert np.array_equal(encoded.columns["c=only"], np.ones(2))


# -- standardization ----------------------------------------------------------


def test_standardize_small_column_exact_values():
    ds = plain_dataset([[1.0], [2.0], [3.0]], [0.5, 1.5, 2.5], REGRESSION)
    out, stats = standardize(ds)
    expected = np.array([-1.2247, 0.0, 1.2247])
    assert np.allclose(out.features[:, 0], expected, atol=1e-4)
    assert stats.scale[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)


def test_standardize_is_idempotent_on_unit_columns():
    column = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    ds = plain_dataset(column[:, None], [0.5, 1.5, 2.5], REGRESSION)
    out, _ = standardize(ds)
    assert np.allclose(out.features[:, 0], column, atol=1e-12)


def test_standardize_train_moments_become_zero_one(rng):
    features = rng.uniform(-4.0, 9.0, size=(40, 3))
    tags = [TRAIN] * 28 + [VAL] * 6 + [TEST] * 6
    ds = plain_dataset(features, rng.standard_normal(40), REGRESSION, tags)
    out, _ = standardize(ds)
    train_rows = out.features[out.split == TRAIN]
    assert np.allclose(train_rows.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(train_rows.var(axis=0), 1.0, atol=1e-9)


def test_standardize_zero_variance_names_column():
    ds = plain_dataset([[1.0, 5.0], [1.0, 6.0]], [0.0, 1.0], REGRESSION)
    with pytest.raises(DataError, match="x0"):
        standardize(ds)


def test_standardize_targets_only_for_regression():
    ds = plain_dataset([[1.0], [2.0]], [0.0, 1.0], CLASSIFICATION)
    with pytest.raises(DataError, match="regression"):
        standardize(ds, include_targets=True)


def test_standardizer_transform_uses_train_statistics():
    tags = [TRAIN, TRAIN, TRAIN, TEST]
    ds = plain_dataset([[1.0], [2.0], [3.0], [10.0]], [0.0] * 4, REGRESSION, tags)
    out, stats = standardize(ds)
    expected = (10.0 - 2.0) / np.sqrt(2.0 / 3.0)
    assert out.features[3, 0] == pytest.approx(expected, abs=1e-12)


# -- splitting ----------------------------------------------------------------


def test_split_default_fractions_exact_counts():
    ds = plain_dataset(
        np.arange(100, dtype=np.float64)[:, None], np.zeros(100), REGRESSION
    )
    tagged = split(ds, seed=3)
    counts = {tag: int(np.sum(tagged.split == tag)) for tag in (TRAIN, VAL, TEST)}
    assert counts == {TRAIN: 70, VAL: 15, TEST: 15}


def test_split_same_seed_is_identical():
    ds = make_synthetic(LINEAR_LOGIT, 90, 4, 0.0, seed=5)
    a = split(ds, seed=11)
    b = split(ds, seed=11)
    assert np.array_equal(a.split, b.split)
    c = split(ds, seed=12)
    assert not np.array_equal(a.split, c.split)


def test_split_remainder_goes_to_largest_fraction():
    ds = plain_dataset(
        np.arange(101, dtype=np.float64)[:, None], np.zeros(101), REGRESSION
    )
    tagged = split(ds, seed=0)
    counts = {tag: int(np.sum(tagged.split == tag)) for tag in (TRAIN, VAL, TEST)}
    assert counts == {TRAIN: 71, VAL: 15, TEST: 15}


def test_split_stratifies_classification_rates():
    ds = make_synthetic(LINEAR_LOGIT, 1000, 6, 0.4, seed=9)
    tagged = split(ds, seed=9)
    overall = float(np.mean(tagged.targets))
    for tag in (TRAIN, VAL, TEST):
        _, y = subset(tagged, tag)
        assert abs(float(np.mean(y)) - overall) <= 0.02


def greedy_interleave(groups, n):
    """The greedy rule ``_interleave_groups`` has in closed form: each
    position goes to the group with the largest deficit
    k_g*(t+1) - taken_g*n, ties toward the earlier group."""
    taken = [0] * len(groups)
    sizes = [len(g) for g in groups]
    merged = []
    for t in range(n):
        best = max(range(len(groups)),
                   key=lambda g: (sizes[g] * (t + 1) - taken[g] * n, -g))
        merged.append(groups[best][taken[best]])
        taken[best] += 1
    return merged


def greedy_split_tags(dataset, seed):
    """``split``'s tags built row by row through ``greedy_interleave``."""
    n = dataset.n_rows
    rng = rng_for(seed, "split")
    if dataset.task == CLASSIFICATION:
        keys = [float(v) for v in np.unique(dataset.targets)]
        groups = [np.flatnonzero(dataset.targets == key) for key in keys]
    else:
        groups = [np.arange(n)]
    order = greedy_interleave([list(rng.permutation(g)) for g in groups], n)
    tags = np.empty(n, dtype=object)
    start = 0
    for tag, count in zip(SPLIT_TAGS, _largest_remainder_counts(n)):
        for i in order[start:start + count]:
            tags[i] = tag
        start += count
    return tags


def two_groups(k0, k1):
    """Two disjoint, unsorted index groups of sizes k0 and k1."""
    rows = np.random.default_rng(k0 * 1000 + k1).permutation(k0 + k1)
    return [rows[:k0], rows[k0:]]


@given(st.integers(0, 80), st.integers(0, 80))
def test_interleave_closed_form_equals_greedy_rule(k0, k1):
    n = k0 + k1
    if n == 0:
        return
    groups = two_groups(k0, k1)
    assert _interleave_groups(groups, n).tolist() == greedy_interleave(groups, n)
    assert _interleave_groups(groups[1:], k1).tolist() == greedy_interleave(groups[1:], k1)


@given(st.integers(0, 200), st.integers(0, 200))
def test_interleave_prefix_share_is_within_half_a_row(k0, k1):
    n = k0 + k1
    if n == 0:
        return
    groups = two_groups(k0, k1)
    in_first = np.isin(_interleave_groups(groups, n), groups[0])
    taken = np.concatenate([[0], np.cumsum(in_first)])
    t = np.arange(n + 1)
    assert np.all(np.abs(2 * n * taken - 2 * k0 * t) <= n)


def test_interleave_rejects_more_than_two_groups():
    with pytest.raises(ValueError, match="3 groups"):
        _interleave_groups([np.arange(2), np.arange(2, 4), np.arange(4, 6)], 6)


@settings(max_examples=60)
@given(st.sampled_from(SYNTHETIC_KINDS), st.integers(0, 2**31 - 1), st.integers(2, 400))
def test_split_tags_equal_greedy_split(kind, seed, n):
    ds = make_synthetic(kind, n, 3, 0.5, seed=seed)
    assert split(ds, seed=seed).split.tolist() == greedy_split_tags(ds, seed).tolist()


# -- synthetic generators -----------------------------------------------------


def test_linear_regression_ols_recovers_weights():
    ds = make_synthetic(LINEAR_REGRESSION, 300, 5, 0.0, seed=4)
    design = np.column_stack([ds.features, np.ones(300)])
    solution = np.linalg.lstsq(design, ds.targets, rcond=None)[0]
    assert np.allclose(solution[:-1], ds.meta["weights"], atol=1e-6)
    assert solution[-1] == pytest.approx(ds.meta["bias"], abs=1e-6)


def test_linear_logit_noise_free_is_separable_by_generator():
    ds = make_synthetic(LINEAR_LOGIT, 400, 5, 0.0, seed=6)
    scores = ds.features @ ds.meta["weights"] + ds.meta["bias"]
    predicted = (scores > 0.0).astype(np.float64)
    assert np.array_equal(predicted, ds.targets)
    rate = float(np.mean(ds.targets))
    assert 0.4 <= rate <= 0.6


def test_nonlinear_median_threshold_balances_labels():
    ds = make_synthetic(NONLINEAR, 500, 8, 0.0, seed=7)
    rate = float(np.mean(ds.targets))
    assert 0.45 <= rate <= 0.55
    assert ds.task == CLASSIFICATION
    assert "teacher" in ds.meta


def test_synthetic_same_seed_identical():
    a = make_synthetic(NONLINEAR, 120, 4, 0.3, seed=8)
    b = make_synthetic(NONLINEAR, 120, 4, 0.3, seed=8)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    c = make_synthetic(NONLINEAR, 120, 4, 0.3, seed=9)
    assert not np.array_equal(a.targets, c.targets)


def test_synthetic_validates_arguments():
    with pytest.raises(ValueError):
        make_synthetic("quadratic", 10, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(LINEAR_LOGIT, 10, 2, -0.5, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(LINEAR_LOGIT, 1, 2, 0.0, seed=0)


# -- tabular pipeline ---------------------------------------------------------


def test_dataset_from_csv_end_to_end(tmp_path):
    lines = ["age,workclass,income"]
    rng = np.random.default_rng(0)
    classes = ["Private", "State-gov"]
    for i in range(60):
        age = 20 + int(rng.integers(0, 40))
        work = classes[int(rng.integers(0, 2))]
        income = "<=50K" if rng.uniform() < 0.5 else ">50K"
        lines.append(f"{age},{work},{income}")
    path = write_csv(tmp_path / "adult.csv", "\n".join(lines) + "\n")

    ds, stats = dataset_from_csv(path, SCHEMA, seed=2)
    assert ds.task == CLASSIFICATION
    assert ds.feature_names == ("age", "workclass=Private", "workclass=State-gov")
    # indicators untouched, numeric column standardized on the train split
    indicator = ds.features[:, 1]
    assert set(np.unique(indicator)) <= {0.0, 1.0}
    train_age = ds.features[ds.split == TRAIN][:, 0]
    assert abs(float(train_age.mean())) < 1e-9
    # ">50K" is the lexicographically later level, so it maps to 1
    assert set(np.unique(ds.targets)) <= {0.0, 1.0}


def test_dataset_from_csv_regression_standardizes_targets(tmp_path):
    lines = ["hours,score"]
    rng = np.random.default_rng(1)
    for _ in range(40):
        lines.append(f"{rng.uniform(0, 60):.3f},{rng.uniform(10, 90):.3f}")
    path = write_csv(tmp_path / "reg.csv", "\n".join(lines) + "\n")
    schema = (ColumnSpec("hours", NUMERIC), ColumnSpec("score", TARGET))
    ds, stats = dataset_from_csv(path, schema, seed=1)
    assert ds.task == REGRESSION
    train_targets = ds.targets[ds.split == TRAIN]
    assert abs(float(train_targets.mean())) < 1e-9
    assert float(train_targets.var()) == pytest.approx(1.0, abs=1e-9)
    assert stats.target_scale is not None


def test_non_numeric_target_needs_two_levels(tmp_path):
    path = write_csv(
        tmp_path / "t.csv", "a,y\n1,low\n2,mid\n3,high\n"
    )
    schema = (ColumnSpec("a", NUMERIC), ColumnSpec("y", TARGET))
    with pytest.raises(DataError, match="2 levels"):
        dataset_from_csv(path, schema)


# -- IDX image files ----------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, h, w, images_magic=IDX_IMAGES_MAGIC,
                   labels_magic=IDX_LABELS_MAGIC, extra=b""):
    n = len(labels)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", images_magic, len(pixels) // (h * w), h, w))
        fh.write(bytes(pixels))
        fh.write(extra)
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", labels_magic, n))
        fh.write(bytes(labels))
    return str(images_path), str(labels_path)


def test_load_idx_exact_pixel_values(tmp_path):
    pixels = [0, 255, 128, 64,
              0, 0, 0, 0,
              255, 255, 255, 255,
              10, 20, 30, 40]
    labels = [7, 1, 7, 0]
    images_path, labels_path = write_idx_pair(tmp_path, pixels, labels, 2, 2)
    data = load_idx(images_path, labels_path)
    assert data.pixels.shape == (4, 4)
    assert np.allclose(data.pixels[0], np.array([0, 255, 128, 64]) / 255.0, atol=1e-12)
    assert np.array_equal(data.pixels[1], np.zeros(4))
    assert np.array_equal(data.labels, np.array([7, 1, 7, 0]))
    assert data.image_dims == (2, 2)


def test_load_idx_rejects_bad_magic(tmp_path):
    images_path, labels_path = write_idx_pair(
        tmp_path, [0] * 4, [0], 2, 2, images_magic=0x00000901
    )
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(images_path, labels_path)


def test_load_idx_rejects_count_mismatch(tmp_path):
    # Two 2x2 images and one label, each file matching its own header.
    images_path, labels_path = write_idx_pair(tmp_path, [0] * 8, [0], 2, 2)
    with pytest.raises(IdxFormatError, match="image count 2 does not match label count 1"):
        load_idx(images_path, labels_path)


def test_load_idx_rejects_trailing_bytes(tmp_path):
    images_path, labels_path = write_idx_pair(
        tmp_path, [0] * 4, [3], 2, 2, extra=b"\x00"
    )
    with pytest.raises(IdxFormatError, match="trailing"):
        load_idx(images_path, labels_path)


def test_load_idx_rejects_truncated_file(tmp_path):
    images_path = tmp_path / "short.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_IMAGES_MAGIC, 1))
    labels_path = tmp_path / "labels.idx"
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABELS_MAGIC, 1))
        fh.write(b"\x00")
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(str(images_path), str(labels_path))


@pytest.mark.parametrize("count", [60000, 2**32 - 1])
def test_load_idx_rejects_a_header_larger_than_the_file(tmp_path, count):
    """An images header that claims count**3 pixels over a 10-byte body is
    rejected as truncated before any read is sized by it."""
    images_path, labels_path = write_idx_pair(tmp_path, [0] * 10, [0], 10, 1)
    with open(images_path, "r+b") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, count, count))
    with pytest.raises(IdxFormatError) as raised:
        load_idx(images_path, labels_path)
    assert str(raised.value) == f"{images_path}: truncated file"


def test_binarize_label_indicator(tmp_path):
    pixels = [0] * 16
    labels = [7, 1, 7, 0]
    images_path, labels_path = write_idx_pair(tmp_path, pixels, labels, 2, 2)
    ds = binarize_label(load_idx(images_path, labels_path), target_digit=7)
    assert np.array_equal(ds.targets, np.array([1.0, 0.0, 1.0, 0.0]))
    assert ds.task == CLASSIFICATION
    assert ds.feature_names[0] == "pixel_0"
    assert ds.image_dims == (2, 2)


# -- dataset invariants -------------------------------------------------------


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(DataError):
        plain_dataset([[1.0], [2.0]], [0.0], REGRESSION)


def test_dataset_rejects_non_binary_classification_targets():
    with pytest.raises(DataError):
        plain_dataset([[1.0], [2.0]], [0.0, 0.5], CLASSIFICATION)


def test_dataset_rejects_unknown_split_tag():
    with pytest.raises(DataError):
        plain_dataset([[1.0]], [0.0], REGRESSION, tags=["holdout"])


def test_dataset_rejects_non_finite_features():
    with pytest.raises(DataError):
        plain_dataset([[np.inf]], [0.0], REGRESSION)


def test_subset_returns_matching_rows():
    ds = plain_dataset(
        [[1.0], [2.0], [3.0]], [0.1, 0.2, 0.3], REGRESSION, [TRAIN, VAL, TEST]
    )
    X, y = subset(ds, VAL)
    assert np.array_equal(X, np.array([[2.0]]))
    assert np.array_equal(y, np.array([0.2]))
    with pytest.raises(ValueError):
        subset(ds, "holdout")
