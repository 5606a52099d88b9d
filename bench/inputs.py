"""Seeded generators for the benchmark's input tables.

The program only ever sees the CSV text written here.  Each generator
returns a ``Table`` that also carries what the output checks need to know
about the real data (labels, ranges, integer columns), computed from the
generated values rather than from anything the program infers.

Every categorical column is forced to use its whole vocabulary, so the
encoded width of a workload does not change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Column:
    name: str
    labels: tuple[str, ...] | None  # None for a continuous column
    values: np.ndarray              # label indices, or float values
    integer: bool = False

    @property
    def categorical(self) -> bool:
        return self.labels is not None

    @property
    def width(self) -> int:
        return len(self.labels) if self.categorical else 1


@dataclass(frozen=True)
class Table:
    columns: tuple[Column, ...]

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values)

    @property
    def encoded_width(self) -> int:
        return sum(c.width for c in self.columns)

    def cells(self, col: Column) -> list[str]:
        if col.categorical:
            return [col.labels[i] for i in col.values]
        if col.integer:
            return [str(int(v)) for v in col.values]
        return [repr(float(v)) for v in col.values]

    def to_csv(self) -> str:
        cols = [self.cells(c) for c in self.columns]
        lines = [",".join(c.name for c in self.columns)]
        lines.extend(",".join(row) for row in zip(*cols))
        return "\n".join(lines) + "\n"

    def encoded(self) -> np.ndarray:
        """One-hot plus min-max encoding in the generator's own label order."""
        blocks = []
        for c in self.columns:
            if c.categorical:
                blocks.append(np.eye(len(c.labels))[c.values])
            else:
                lo, hi = float(c.values.min()), float(c.values.max())
                blocks.append(((c.values - lo) / (hi - lo))[:, None])
        return np.concatenate(blocks, axis=1)


def _draw(rng: np.random.Generator, logits: np.ndarray) -> np.ndarray:
    """One category per row from row-wise logits (n, k), by inverse CDF.

    The first k rows take categories 0..k-1 so every label appears.
    """
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    u = rng.random(logits.shape[0])[:, None]
    picks = np.minimum((cdf < u).sum(axis=1), logits.shape[1] - 1)
    k = logits.shape[1]
    picks[:k] = np.arange(k)
    return picks


def _labels(prefix: str, k: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:03d}" for i in range(k))


# ---------------------------------------------------------------------------
# census-dp: a census-shaped mixed table, 15 columns, 73 encoded features

WORKCLASS = ("Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay")
EDUCATION = ("HS-grad", "Some-college", "Bachelors", "Masters", "Assoc-voc",
             "11th", "Assoc-acdm", "10th", "7th-8th", "Prof-school", "9th",
             "12th", "Doctorate", "5th-6th", "1st-4th", "Preschool")
MARITAL = ("Married-civ-spouse", "Never-married", "Divorced", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse")
OCCUPATION = ("Prof-specialty", "Craft-repair", "Exec-managerial",
              "Adm-clerical", "Sales", "Other-service", "Machine-op-inspct",
              "Transport-moving", "Handlers-cleaners", "Farming-fishing",
              "Tech-support", "Protective-serv", "Priv-house-serv",
              "Armed-Forces")
RELATIONSHIP = ("Husband", "Not-in-family", "Own-child", "Unmarried", "Wife",
                "Other-relative")
RACE = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
SEX = ("Male", "Female")
COUNTRY = ("United-States", "Mexico", "Philippines", "Germany", "Canada",
           "India", "England", "Other")
INCOME = ("<=50K", ">50K")


def census_table(seed: int, n_rows: int = 10_000) -> Table:
    """Two latent factors (career, age) drive skewed, correlated columns."""
    rng = np.random.default_rng([seed, 7001])
    n = n_rows
    career = rng.standard_normal(n)
    age = np.clip(np.rint(rng.gamma(6.0, 6.5, n) + 17.0), 17, 90)
    age_z = ((age - 38.0) / 13.0)[:, None]
    c = career[:, None]
    male = rng.random(n) < 0.67
    sex_z = np.where(male, 0.35, -0.35)[:, None]

    edu_score = np.linspace(-2.6, 2.2, len(EDUCATION))[rng.permutation(len(EDUCATION))]
    education = _draw(rng, 0.9 * c * edu_score - 0.12 * edu_score**2)
    edu_num = np.clip(9.0 + 2.2 * career + rng.normal(0.0, 1.2, n), 1.0, 16.0)
    married = rng.random(n) < 0.25 + 0.35 / (1.0 + np.exp(-(age_z[:, 0] + 0.4 * sex_z[:, 0])))
    m = married[:, None]
    marital = _draw(rng, np.where(
        m,
        np.array([3.0, -2, -2, -2, -2, -2, 0.3]),
        np.array([-3.0, 1.6, 0.7, 0.0, -0.4, -0.8, -4])
        + 0.8 * age_z * np.array([0, -1, 0.5, 0.2, 1, 0.3, 0])))
    relationship = _draw(rng, np.where(
        m,
        np.array([2.0, -2, -3, -3, 2.0, -1]) + sex_z * np.array([4, 0, 0, 0, -4, 0]),
        np.array([-4.0, 1.0, 0.8, 0.3, -4, -0.5]) - age_z * np.array([0, 0, 1, 0, 0, 0])))
    workclass = _draw(rng, np.array([2.2, 0.1, -0.7, -0.6, -0.3, -0.5, -3.0])
                      + c * np.array([0, 0.1, 0.4, 0.3, 0, 0, 0])
                      + age_z * np.array([0, 0.3, 0, 0, 0, 0, 0]))
    occ_score = np.array([1.2, -0.3, 1.4, 0.0, 0.3, -0.8, -0.7, -0.6, -1.0, -1.1, 0.7,
                          -0.2, -2.0, -3.0])
    occupation = _draw(rng, 0.8 * c * np.sign(occ_score) + 0.3 * occ_score)
    race = _draw(rng, np.broadcast_to(np.array([2.8, 0.9, 0.1, -0.9, -0.9]), (n, 5)))
    country = _draw(rng, np.broadcast_to(
        np.array([3.4, 0.6, 0.0, -0.2, -0.2, -0.1, -0.4, 0.8]), (n, 8)))

    fnlwgt = np.clip(np.exp(11.9 + 0.55 * rng.standard_normal(n)), 1.3e4, 1.2e6)
    hours = np.clip(40.0 + 9.0 * career * sex_z[:, 0] + rng.normal(0.0, 9.0, n), 1.0, 99.0)
    has_gain = rng.random(n) < 0.08 + 0.04 * career
    gain = np.where(has_gain, np.clip(np.exp(8.5 + 0.8 * career + rng.normal(0.0, 0.6, n)),
                                      100.0, 99999.0), 0.0)
    has_loss = rng.random(n) < 0.047
    loss = np.where(has_loss, np.clip(rng.normal(1870.0, 180.0, n), 500.0, 4356.0), 0.0)
    inc_logit = -2.4 + 1.1 * career + 0.8 * age_z[:, 0] + 0.9 * married + 0.4 * sex_z[:, 0]
    income = _draw(rng, np.stack([np.zeros(n), inc_logit], axis=1))
    sex = _draw(rng, np.where(male[:, None], np.array([9.0, -9.0]), np.array([-9.0, 9.0])))

    return Table((
        Column("age", None, age, integer=True),
        Column("workclass", WORKCLASS, workclass),
        Column("fnlwgt", None, fnlwgt),
        Column("education", EDUCATION, education),
        Column("education_num", None, edu_num),
        Column("marital_status", MARITAL, marital),
        Column("occupation", OCCUPATION, occupation),
        Column("relationship", RELATIONSHIP, relationship),
        Column("race", RACE, race),
        Column("sex", SEX, sex),
        Column("capital_gain", None, gain),
        Column("capital_loss", None, loss),
        Column("hours_per_week", None, hours),
        Column("native_country", COUNTRY, country),
        Column("income", INCOME, income),
    ))


# ---------------------------------------------------------------------------
# ring-plain: eight tight Gaussian modes on the unit circle

RING_MODES = 8
RING_SIGMA = 0.05


def ring_table(seed: int, per_mode: int = 500) -> tuple[Table, np.ndarray]:
    """Returns the table and the (8, 2) mode centres."""
    rng = np.random.default_rng([seed, 7002])
    angles = 2.0 * np.pi * np.arange(RING_MODES) / RING_MODES
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = np.concatenate(
        [c + RING_SIGMA * rng.standard_normal((per_mode, 2)) for c in centers])
    return Table((Column("x", None, points[:, 0]), Column("y", None, points[:, 1]))), centers


# ---------------------------------------------------------------------------
# wide-release: 200 encoded features, one 120-label column, mixed numerics

WIDE_REGIONS = 120
WIDE_CATEGORICALS = (8, 10, 12, 9, 11, 10)   # 60 more one-hot features
WIDE_INTEGERS = 10
WIDE_REALS = 10


def wide_table(seed: int, n_rows: int) -> Table:
    """A release-style table driven by three latent factors."""
    rng = np.random.default_rng([seed, 7003])
    n = n_rows
    latent = rng.standard_normal((n, 3))
    ranks = np.arange(1, WIDE_REGIONS + 1)
    region_logits = -1.1 * np.log(ranks) + latent[:, :1] * np.sin(ranks)[None, :] * 0.5
    columns = [Column("region", _labels("r", WIDE_REGIONS), _draw(rng, region_logits))]
    for j, k in enumerate(WIDE_CATEGORICALS):
        loadings = rng.normal(0.0, 1.0, (3, k))
        base = rng.normal(0.0, 1.0, k)
        columns.append(Column(f"cat{j}", _labels(f"c{j}_", k), _draw(rng, base + latent @ loadings)))
    for j in range(WIDE_INTEGERS):
        scale = 20.0 * (j + 1)
        rate = scale * np.exp(0.4 * latent @ rng.normal(0.0, 1.0, 3) / np.sqrt(3.0))
        columns.append(Column(f"count{j}", None, rng.poisson(rate).astype(np.float64), integer=True))
    for j in range(WIDE_REALS):
        mix = latent @ rng.normal(0.0, 1.0, 3) + rng.standard_normal(n)
        values = np.exp(mix) if j % 2 else 100.0 * mix
        columns.append(Column(f"real{j}", None, values))
    return Table(tuple(columns))
