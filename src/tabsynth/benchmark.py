"""Benchmark sweeps over datasets x models x privacy budgets x seeds.

A JSON plan file declares the grid; every cell trains one model, samples as
many rows as the real table holds, and scores the output with the fidelity
suite.  Loading a plan builds each model kind's config by the rule every
cell uses (``_cell_config``) and rejects a repeated entry, so a bad option
or a duplicate fails once, before any cell runs.  Cells run one by one
unless ``TABSYNTH_THREADS`` sets a thread pool; a cell that still fails (its
privacy parameters, its data) is recorded and the sweep keeps going.
Aggregates are plain means/stds over the per-seed reports, so they can
always be recomputed from the report files on disk.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .encoding import encode
from .errors import ConfigError, check_number_fields, typed_number
from .metrics import FidelityReport, evaluate
from .models import MODEL_KINDS, make_config, option_keys, sample_table, train_model
from .privacy import DEFAULT_CLIP_NORM, DEFAULT_DELTA, build_privacy
from .schema import RawTable, load_schema, load_table

REPORT_FIELDS = ("pmse_ratio", "marginal_distance", "alpha_precision_integral",
                 "beta_recall_integral", "auprc")
_SUBSAMPLE_SEED = 12345  # fixed so every seed sees the same subsample


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: str
    schema_path: str | None = None
    subsample: int | None = None

    def __post_init__(self) -> None:
        if self.subsample is not None:
            object.__setattr__(self, "subsample", typed_number("subsample", self.subsample, int))
            if self.subsample < 1:
                raise ConfigError(f"subsample must be >= 1, got {self.subsample}")


@dataclass(frozen=True)
class BenchmarkPlan:
    datasets: tuple[DatasetSpec, ...]
    models: tuple[str, ...]
    epsilons: tuple  # floats, or None for an unprivatized run
    repeats: int
    seeds: tuple[int, ...]
    delta: float = DEFAULT_DELTA
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_number_fields(self, positive=True)
        if self.delta >= 1.0:
            raise ConfigError(f"option 'delta' must be < 1, got {self.delta}")
        object.__setattr__(self, "seeds", tuple(typed_number("seeds", s, int) for s in self.seeds))
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        if len(self.seeds) != self.repeats:
            raise ConfigError(
                f"seed list length {len(self.seeds)} must equal repeats {self.repeats}")
        if not self.datasets or not self.models or not self.epsilons:
            raise ConfigError("plan needs at least one dataset, model and epsilon")
        for kind in self.models:
            _cell_config(kind, self.options)
        for eps in self.epsilons:
            if eps is not None and typed_number("epsilons", eps, float) <= 0:
                raise ConfigError(f"epsilon budgets must be positive, got {eps}")
        # Each entry names its own report files and results.csv rows.
        for key, entries in (("datasets", [spec.name for spec in self.datasets]),
                             ("models", self.models), ("seeds", self.seeds),
                             ("epsilons", [_eps_label(eps) for eps in self.epsilons])):
            repeated = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
            if repeated:
                raise ConfigError(f"plan key {key!r} repeats {repeated[0]!r}")


def load_plan(path: str | Path) -> BenchmarkPlan:
    """The plan in a JSON file; its numbers are typed like CLI config values."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return BenchmarkPlan(
            datasets=tuple(DatasetSpec(d["name"], d["path"], d.get("schema"), d.get("subsample"))
                           for d in payload["datasets"]),
            models=tuple(payload["models"]),
            epsilons=tuple(payload["epsilons"]),
            repeats=payload["repeats"],
            seeds=tuple(payload["seeds"]),
            delta=payload.get("delta", BenchmarkPlan.delta),
            options=dict(payload.get("options", {})),
        )
    except KeyError as exc:
        raise ConfigError(f"benchmark plan is missing key {exc}") from exc
    except TypeError as exc:  # the plan, or one of its datasets, is not an object
        raise ConfigError(f"malformed benchmark plan: {exc}") from exc


def load_plan_dataset(spec: DatasetSpec) -> RawTable:
    schema = load_schema(spec.schema_path) if spec.schema_path else None
    table = load_table(spec.path, schema)
    if spec.subsample is not None and spec.subsample < table.n_rows:
        keep = np.sort(np.random.default_rng(_SUBSAMPLE_SEED).choice(
            table.n_rows, size=spec.subsample, replace=False))
        table = RawTable.from_columns(table.schema, [column[keep] for column in table.columns])
    return table


# Options a plan may set; each cell keeps only the keys its model understands,
# so one option block can drive a sweep that mixes model families.
_PRIVACY_OPTION_KEYS = frozenset({"sigma", "clip_norm"})
_OPTION_KEYS = frozenset().union(*map(option_keys, MODEL_KINDS)) | _PRIVACY_OPTION_KEYS


def _cell_config(kind: str, options: dict):
    """The config every cell of ``kind`` trains with: an option no model reads
    is a ConfigError, and the kind keeps the options it reads."""
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise ConfigError(f"unknown benchmark options: {', '.join(sorted(unknown))}")
    allowed = option_keys(kind)
    return make_config(kind, **{k: v for k, v in options.items() if k in allowed})


def run_cell(table: RawTable, model_kind: str, epsilon, seed: int,
             delta: float = DEFAULT_DELTA, options: dict | None = None) -> FidelityReport:
    """Train, sample |table| rows, evaluate: one benchmark grid cell."""
    options = dict(options or {})
    config = _cell_config(model_kind, options)
    privacy = build_privacy(epsilon, delta, options.get("sigma"),
                            options.get("clip_norm", DEFAULT_CLIP_NORM), config.batch_target,
                            table.n_rows)
    model = train_model(encode(table), replace(config, privacy=privacy), seed)
    synth = sample_table(model, table.n_rows, seed=seed + 1)
    meta = {"model": model_kind, "epsilon_target": epsilon, "seed": seed,
            "epsilon_spent": model.epsilon_spent, "steps": model.ledger.steps_taken}
    return evaluate(table, synth, metadata=meta)


def worker_count(n_cells: int) -> int:
    limit = os.environ.get("TABSYNTH_THREADS")
    if limit and not (limit.isdecimal() and int(limit) >= 1):
        raise ConfigError(f"TABSYNTH_THREADS must be an integer >= 1, got {limit!r}")
    return max(1, min(n_cells, int(limit))) if limit else 1


def _eps_label(epsilon) -> str:
    return "none" if epsilon is None else f"{epsilon:g}"


def aggregate_reports(cells: dict) -> list[dict]:
    """One row per (dataset, model, epsilon): mean and std of every metric."""
    rows = []
    for (ds, model, eps), reports in sorted(
            cells.items(), key=lambda kv: (kv[0][0], kv[0][1], _eps_label(kv[0][2]))):
        row = {"dataset": ds, "model": model, "epsilon": _eps_label(eps),
               "n_seeds": len(reports)}
        for name in REPORT_FIELDS:
            vals = [getattr(r, name) for r in reports]
            row[f"{name}_mean"] = float(np.mean(vals)) if vals else float("nan")
            row[f"{name}_std"] = float(np.std(vals)) if vals else float("nan")
        rows.append(row)
    return rows


def run_benchmark(plan: BenchmarkPlan, out_dir: str | Path) -> tuple[list[dict], list[dict]]:
    """Run every cell of the plan; returns (aggregate rows, failure records)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {spec.name: load_plan_dataset(spec) for spec in plan.datasets}

    jobs = [(spec.name, model, eps, seed)
            for spec in plan.datasets
            for model in plan.models
            for eps in plan.epsilons
            for seed in plan.seeds]

    def run_one(job):
        # Each cell writes its report as it finishes, so an interrupted
        # sweep keeps every finished cell.
        ds, model, eps, seed = job
        report = run_cell(tables[ds], model, eps, seed, plan.delta, plan.options)
        name = f"{ds}_{model}_eps{_eps_label(eps)}_seed{seed}.report.json"
        (out / name).write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")
        return report

    failures: list[dict] = []
    cells: dict = {}
    with ThreadPoolExecutor(max_workers=worker_count(len(jobs))) as pool:
        outcomes = list(pool.map(lambda j: _guarded(run_one, j), jobs))
    for job, (report, error) in zip(jobs, outcomes):
        ds, model, eps, seed = job
        if error is not None:
            failures.append({"dataset": ds, "model": model,
                             "epsilon": _eps_label(eps), "seed": seed, "error": error})
            continue
        cells.setdefault((ds, model, eps), []).append(report)

    rows = aggregate_reports(cells)
    _write_results_csv(rows, out / "results.csv")
    if failures:
        (out / "failures.json").write_text(
            json.dumps(failures, indent=2) + "\n", encoding="utf-8")
    return rows, failures


def _guarded(fn, job):
    try:
        return fn(job), None
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return None, f"{type(exc).__name__}: {exc}"


def _write_results_csv(rows: list[dict], path: Path) -> None:
    header = ["dataset", "model", "epsilon", "n_seeds"]
    header += [f"{name}_{stat}" for name in REPORT_FIELDS for stat in ("mean", "std")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
