"""Dataset loading and preprocessing.

Covers CSV ingestion against a declared column schema, one-hot expansion of
categorical columns, train-split standardization, IDX image loading with
label binarization, seeded stratified splits, and synthetic generators used
as test oracles.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, IdxFormatError
from .seeding import rng_for

NUMERIC = "numeric"
CATEGORICAL = "categorical"
TARGET = "target"

CLASSIFICATION = "binary-classification"
REGRESSION = "regression"

TRAIN = "train"
VAL = "val"
TEST = "test"
SPLIT_TAGS = (TRAIN, VAL, TEST)

DEFAULT_FRACTIONS = (0.7, 0.15, 0.15)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class ColumnSpec:
    """Declared role of one CSV column.

    ``levels`` restricts a categorical column to a fixed vocabulary; when
    omitted the levels are inferred from the file.
    """

    name: str
    kind: str
    levels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL, TARGET):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.levels is not None and self.kind != CATEGORICAL:
            raise ValueError("levels only apply to categorical columns")


@dataclass(frozen=True)
class Table:
    """Typed columns parsed from a CSV file, prior to feature assembly."""

    schema: tuple[ColumnSpec, ...]
    columns: dict[str, np.ndarray]
    n_rows: int


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with targets and per-row split tags."""

    features: np.ndarray
    targets: np.ndarray
    task: str
    feature_names: tuple[str, ...]
    split: np.ndarray
    image_dims: tuple[int, int] | None = None
    meta: dict | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=np.float64)
        t = np.asarray(self.targets, dtype=np.float64)
        if f.ndim != 2 or t.ndim != 1 or f.shape[0] != t.shape[0]:
            raise DataError(f"feature/target shapes disagree: {f.shape} vs {t.shape}")
        if len(self.feature_names) != f.shape[1]:
            raise DataError("feature_names length does not match feature count")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise DataError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION and not np.all((t == 0.0) | (t == 1.0)):
            raise DataError("classification targets must be 0 or 1")
        s = np.asarray(self.split)
        if s.shape != (f.shape[0],) or not np.all(np.isin(s, SPLIT_TAGS)):
            raise DataError("split tags must assign train/val/test to every row")
        if not (np.isfinite(f).all() and np.isfinite(t).all()):
            raise DataError("non-finite values in dataset")
        if self.image_dims is not None:
            h, w = self.image_dims
            if h * w != f.shape[1]:
                raise DataError("image_dims inconsistent with feature count")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "split", s)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def subset(dataset: Dataset, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and targets for one split tag."""
    if tag not in SPLIT_TAGS:
        raise ValueError(f"unknown split tag {tag!r}")
    mask = dataset.split == tag
    return dataset.features[mask], dataset.targets[mask]


def _parse_numeric(value: str, column: str, row: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise DataError(
            f"row {row}: cannot parse {value!r} in numeric column {column!r}"
        ) from None


def load_csv(path: str, schema: list[ColumnSpec] | tuple[ColumnSpec, ...]) -> Table:
    """Parse a header-first CSV file into typed columns.

    The header must contain exactly the schema's column names.  Cells are
    stripped of surrounding whitespace; an empty cell is a missing value and
    rejected with its 1-based data row number.
    """
    schema = tuple(schema)
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise DataError("duplicate column names in schema")
    if sum(1 for c in schema if c.kind == TARGET) != 1:
        raise DataError("schema must declare exactly one target column")

    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if sorted(header) != sorted(names):
        raise DataError(f"header {header} does not match schema columns {names}")
    position = {name: header.index(name) for name in names}

    raw: dict[str, list] = {name: [] for name in names}
    for i, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for spec in schema:
            value = row[position[spec.name]]
            if value == "":
                raise DataError(f"row {i}: missing value in column {spec.name!r}")
            if spec.kind == NUMERIC:
                raw[spec.name].append(_parse_numeric(value, spec.name, i))
            else:
                if spec.kind == CATEGORICAL and spec.levels is not None:
                    if value not in spec.levels:
                        raise DataError(
                            f"row {i}: unknown level {value!r} in column {spec.name!r}"
                        )
                raw[spec.name].append(value)

    columns: dict[str, np.ndarray] = {}
    for spec in schema:
        if spec.kind == NUMERIC:
            columns[spec.name] = np.asarray(raw[spec.name], dtype=np.float64)
        else:
            columns[spec.name] = np.asarray(raw[spec.name], dtype=object)
    return Table(schema=schema, columns=columns, n_rows=len(body))


def column_levels(table: Table, name: str) -> tuple[str, ...]:
    """Lexicographic level inventory of one categorical column."""
    for spec in table.schema:
        if spec.name == name:
            if spec.kind != CATEGORICAL:
                raise DataError(f"column {name!r} is not categorical")
            if spec.levels is not None:
                return spec.levels
            return tuple(sorted(set(table.columns[name])))
    raise DataError(f"no column named {name!r}")


def one_hot(table: Table) -> Table:
    """Expand every categorical column into one indicator column per level.

    Levels are ordered lexicographically and indicator columns are named
    ``column=level``.  Each original cell contributes exactly one 1.
    """
    new_schema: list[ColumnSpec] = []
    new_columns: dict[str, np.ndarray] = {}
    for spec in table.schema:
        if spec.kind != CATEGORICAL:
            new_schema.append(spec)
            new_columns[spec.name] = table.columns[spec.name]
            continue
        levels = column_levels(table, spec.name)
        values = table.columns[spec.name]
        for level in levels:
            indicator_name = f"{spec.name}={level}"
            new_schema.append(ColumnSpec(name=indicator_name, kind=NUMERIC))
            new_columns[indicator_name] = (values == level).astype(np.float64)
    return Table(schema=tuple(new_schema), columns=new_columns, n_rows=table.n_rows)


@dataclass(frozen=True)
class Standardizer:
    """Train-split mean and population standard deviation per column."""

    names: tuple[str, ...]
    indices: tuple[int, ...]
    mean: np.ndarray
    scale: np.ndarray
    target_mean: float | None = None
    target_scale: float | None = None

    def transform(self, features: np.ndarray) -> np.ndarray:
        out = np.array(features, dtype=np.float64)
        idx = list(self.indices)
        out[:, idx] = (out[:, idx] - self.mean) / self.scale
        return out


def standardize(
    dataset: Dataset,
    columns: tuple[str, ...] | None = None,
    include_targets: bool = False,
) -> tuple[Dataset, Standardizer]:
    """Standardize selected columns using training-split statistics.

    Population (1/N) variance is used.  ``include_targets`` additionally
    standardizes regression targets with their train-split statistics; it is
    rejected for classification tasks.
    """
    if columns is None:
        columns = dataset.feature_names
    indices = []
    for name in columns:
        if name not in dataset.feature_names:
            raise DataError(f"no feature column named {name!r}")
        indices.append(dataset.feature_names.index(name))
    train = dataset.split == TRAIN
    if not train.any():
        raise DataError("standardization requires a nonempty training split")

    sub = dataset.features[train][:, indices]
    mean = sub.mean(axis=0)
    var = sub.var(axis=0)
    for j, name in enumerate(columns):
        if var[j] == 0.0:
            raise DataError(f"zero variance in column {name!r} on the training split")
    scale = np.sqrt(var)

    target_mean: float | None = None
    target_scale: float | None = None
    targets = dataset.targets
    if include_targets:
        if dataset.task != REGRESSION:
            raise DataError("target standardization only applies to regression")
        t_train = dataset.targets[train]
        t_var = float(t_train.var())
        if t_var == 0.0:
            raise DataError("zero variance in regression targets on the training split")
        target_mean = float(t_train.mean())
        target_scale = float(np.sqrt(t_var))
        targets = (dataset.targets - target_mean) / target_scale

    std = Standardizer(
        names=tuple(columns),
        indices=tuple(indices),
        mean=mean,
        scale=scale,
        target_mean=target_mean,
        target_scale=target_scale,
    )
    return replace(dataset, features=std.transform(dataset.features), targets=targets), std


def _largest_remainder_counts(n: int) -> list[int]:
    ideal = [n * f for f in DEFAULT_FRACTIONS]
    counts = [int(np.floor(v)) for v in ideal]
    remainders = [v - c for v, c in zip(ideal, counts)]
    # ties broken toward the earlier split for determinism
    order = sorted(range(len(ideal)), key=lambda i: (-remainders[i], i))
    for i in range(n - sum(counts)):
        counts[order[i]] += 1
    return counts


def _interleave_groups(groups: list[np.ndarray], n: int) -> np.ndarray:
    """Merge one or two index groups so any prefix holds near-proportional shares.

    Position t goes to the group with the largest deficit
    D_g = k_g*(t+1) - taken_g*n, ties toward the earlier group.  The two
    deficits sum to n, so group 0 wins exactly when 2*D_0 >= n; by induction
    it then holds taken_0(t) = (2*k_0*t + n) // (2n) of the first t
    positions and takes position t where that count rises.
    """
    if len(groups) == 1:
        return groups[0]
    if len(groups) != 2:
        raise ValueError(f"cannot interleave {len(groups)} groups")
    first, second = groups
    to_first = np.diff((2 * len(first) * np.arange(n + 1) + n) // (2 * n)) == 1
    merged = np.empty(n, dtype=np.intp)
    merged[to_first] = first
    merged[~to_first] = second
    return merged


def split(dataset: Dataset, seed: int = 0) -> Dataset:
    """Assign seeded train/val/test tags, stratified by label for classification.

    Global split sizes are 70/15/15 of the rows, rounded by the
    largest-remainder rule.  Rows are shuffled within each class and the
    classes interleaved proportionally before the block cut, keeping
    per-split class rates within a row or two of the global rate.
    """
    n = dataset.n_rows
    counts = _largest_remainder_counts(n)
    rng = rng_for(seed, "split")

    if dataset.task == CLASSIFICATION:
        groups = [np.flatnonzero(dataset.targets == key)
                  for key in np.unique(dataset.targets)]
    else:
        groups = [np.arange(n)]
    order = _interleave_groups([rng.permutation(g) for g in groups], n)

    tags = np.empty(n, dtype=object)
    bounds = np.cumsum([0] + counts)
    for tag, start, stop in zip(SPLIT_TAGS, bounds, bounds[1:]):
        tags[order[start:stop]] = tag
    return replace(dataset, split=tags)


def _read_exact(fh, count: int, path: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(f"{path}: truncated file")
    return data


@dataclass(frozen=True)
class ImageData:
    """Flattened image rows in [0,1] with raw integer labels."""

    pixels: np.ndarray
    labels: np.ndarray
    image_dims: tuple[int, int]


def _read_idx(path: str, magic: int, ndim: int) -> tuple[list[int], np.ndarray]:
    """The ``ndim`` big-endian dimensions and the uint8 body of one IDX file
    whose magic is ``magic``; the body's size must be the dimensions'
    product, and is checked against the file before it is read."""
    with open(path, "rb") as fh:
        found = int.from_bytes(_read_exact(fh, 4, path), "big")
        if found != magic:
            raise IdxFormatError(f"{path}: bad magic {found:#010x}")
        dims = [int.from_bytes(_read_exact(fh, 4, path), "big") for _ in range(ndim)]
        size = math.prod(dims)  # exact, where np.prod would wrap
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != left:
            problem = "truncated file" if size > left else "trailing bytes"
            raise IdxFormatError(f"{path}: {problem}")
        return dims, np.frombuffer(fh.read(size), dtype=np.uint8)


def load_idx(images_path: str, labels_path: str) -> ImageData:
    """Load an IDX image/label file pair.

    All header fields are big-endian.  Pixels are scaled to [0,1] by
    dividing by 255 and each image is flattened row-major.
    """
    (n, h, w), raw = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    (n_labels,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if n_labels != n:
        raise IdxFormatError(f"image count {n} does not match label count {n_labels}")
    pixels = raw.reshape(n, h * w).astype(np.float64) / 255.0
    return ImageData(pixels=pixels, labels=labels.astype(np.int64), image_dims=(h, w))


def binarize_label(images: ImageData, target_digit: int) -> Dataset:
    """Binary classification dataset: target 1 iff the label equals the digit.

    Rows start tagged train; apply split() afterwards for real tags.
    """
    targets = (images.labels == target_digit).astype(np.float64)
    n, d = images.pixels.shape
    return Dataset(
        features=images.pixels,
        targets=targets,
        task=CLASSIFICATION,
        feature_names=tuple(f"pixel_{i}" for i in range(d)),
        split=np.asarray([TRAIN] * n, dtype=object),
        image_dims=images.image_dims,
    )


def _parse_target(values: np.ndarray) -> tuple[np.ndarray, str]:
    """Infer task and numeric targets from a raw target column.

    All-numeric values in {0,1} mean classification, other numeric values
    mean regression.  Non-numeric values need exactly two levels, mapped to
    0/1 in lexicographic order.
    """
    try:
        numeric = np.asarray([float(v) for v in values], dtype=np.float64)
    except ValueError:
        levels = sorted(set(values))
        if len(levels) != 2:
            raise DataError(
                f"non-numeric target needs exactly 2 levels, found {len(levels)}"
            ) from None
        return np.asarray(values == levels[1], dtype=np.float64), CLASSIFICATION
    if np.all((numeric == 0.0) | (numeric == 1.0)):
        return numeric, CLASSIFICATION
    return numeric, REGRESSION


def dataset_from_table(table: Table, seed: int = 0) -> tuple[Dataset, Standardizer]:
    """One-hot encode, split, and standardize a parsed table.

    Continuous columns (and regression targets) are standardized with
    train-split statistics; indicator columns stay 0/1.
    """
    numeric_names = tuple(c.name for c in table.schema if c.kind == NUMERIC)
    target_name = next(c.name for c in table.schema if c.kind == TARGET)
    expanded = one_hot(table)
    targets, task = _parse_target(table.columns[target_name])
    feature_specs = [c for c in expanded.schema if c.name != target_name]
    features = np.column_stack(
        [expanded.columns[c.name] for c in feature_specs]
    ).astype(np.float64)
    dataset = Dataset(
        features=features,
        targets=targets,
        task=task,
        feature_names=tuple(c.name for c in feature_specs),
        split=np.asarray([TRAIN] * table.n_rows, dtype=object),
    )
    dataset = split(dataset, seed)
    return standardize(dataset, numeric_names, include_targets=task == REGRESSION)


def dataset_from_csv(
    path: str,
    schema: list[ColumnSpec] | tuple[ColumnSpec, ...],
    seed: int = 0,
) -> tuple[Dataset, Standardizer]:
    """Load, encode, split, and standardize a CSV file in one step."""
    return dataset_from_table(load_csv(path, schema), seed)


LINEAR_REGRESSION = "linear_regression"
LINEAR_LOGIT = "linear_logit"
NONLINEAR = "nonlinear"
SYNTHETIC_KINDS = (LINEAR_REGRESSION, LINEAR_LOGIT, NONLINEAR)


def make_synthetic(kind: str, n: int, d: int, noise: float, seed: int) -> Dataset:
    """Seeded synthetic dataset with a known generating process.

    linear_regression: y = Xw + b + noise*eps, generating (w, b) in meta.
    linear_logit: labels from sign(Xw + b + noise*eps) with the intercept
    centering the logits, so noise=0 is linearly separable and balanced.
    nonlinear: labels from thresholding a fixed random ReLU network's score
    at its median.  Features are standard normal in every kind.  The result
    carries all-train tags; apply split() for real tags.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and nonnegative, got {noise!r}")
    rng = rng_for(seed, "synthetic")
    X = rng.standard_normal((n, d))
    if kind == LINEAR_REGRESSION:
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        y = X @ w + b + noise * rng.standard_normal(n)
        task, meta = REGRESSION, {"weights": w, "bias": b}
    elif kind == LINEAR_LOGIT:
        w = rng.standard_normal(d)
        scores = X @ w
        b = -float(np.median(scores))
        y = (scores + b + noise * rng.standard_normal(n) > 0.0).astype(np.float64)
        task, meta = CLASSIFICATION, {"weights": w, "bias": b}
    else:
        from .nn import REGRESSION_SCALAR, forward_batch, init_mlp

        teacher = init_mlp(d, (16,), REGRESSION_SCALAR, rng)
        scores = forward_batch(teacher, X)
        threshold = float(np.median(scores))
        y = (scores + noise * rng.standard_normal(n) > threshold).astype(np.float64)
        task, meta = CLASSIFICATION, {"teacher": teacher, "threshold": threshold}
    return Dataset(
        features=X, targets=y, task=task, feature_names=tuple(f"x{i}" for i in range(d)),
        split=np.asarray([TRAIN] * n, dtype=object), meta=meta,
    )
