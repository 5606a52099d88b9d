"""Benchmark plan parsing, cell execution, aggregation, failure isolation."""

import csv
import json

import numpy as np
import pytest

from tabsynth.benchmark import (
    BenchmarkPlan,
    DatasetSpec,
    aggregate_reports,
    load_plan,
    load_plan_dataset,
    run_benchmark,
    run_cell,
    worker_count,
)
from tabsynth.cli import main
from tabsynth.errors import ConfigError, PrivacyError
from tabsynth.metrics import FidelityReport
from tabsynth.schema import RawTable, infer_schema, parse_table, save_schema, write_table

FAST_OPTIONS = {"width": 8, "blocks": 1, "epochs": 2, "batch_target": 512,
                "latent_dim": 8}


def tiny_csv(tmp_path, n=60, name="toy.csv"):
    rng = np.random.default_rng(0)
    lines = ["c,x,y"]
    for _ in range(n):
        lines.append(f"{'uv'[rng.integers(2)]},{rng.random():.6f},{rng.random():.6f}")
    text = "\n".join(lines) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return path, text


def small_plan(path, **kw):
    base = dict(
        datasets=(DatasetSpec("toy", str(path)),),
        models=("tablediffusion",),
        epsilons=(None,),
        repeats=1,
        seeds=(0,),
        options=dict(FAST_OPTIONS),
    )
    base.update(kw)
    return BenchmarkPlan(**base)


def test_plan_validation(tmp_path):
    path, _ = tiny_csv(tmp_path)
    with pytest.raises(ConfigError):
        small_plan(path, repeats=0, seeds=())
    with pytest.raises(ConfigError):
        small_plan(path, repeats=2, seeds=(0,))
    with pytest.raises(ConfigError, match="seeds"):
        small_plan(path, repeats=2, seeds=(0, -1))
    with pytest.raises(ConfigError):
        small_plan(path, models=())
    with pytest.raises(ConfigError):
        small_plan(path, models=("oracle",))
    with pytest.raises(ConfigError):
        small_plan(path, epsilons=(0.0,))
    with pytest.raises(ConfigError):
        small_plan(path, epsilons=())


def test_load_plan_round_trip(tmp_path):
    csv_path, _ = tiny_csv(tmp_path)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(csv_path), "subsample": 40}],
        "models": ["tablediffusion", "dpwgan"],
        "epsilons": [1.0, None],
        "repeats": 2,
        "seeds": [0, 1],
        "delta": 1e-6,
        "options": {"epochs": 3},
    }))
    plan = load_plan(plan_path)
    assert plan.datasets[0].subsample == 40
    assert plan.models == ("tablediffusion", "dpwgan")
    assert plan.epsilons == (1.0, None)
    assert plan.delta == 1e-6
    assert plan.options == {"epochs": 3}

    plan_path.write_text(json.dumps({"datasets": []}))
    with pytest.raises(ConfigError, match="missing key"):
        load_plan(plan_path)


@pytest.mark.parametrize("plan, match", [
    ([], "malformed benchmark plan"),
    ({"datasets": [1]}, "malformed benchmark plan"),
    ({"seeds": [0.7]}, "'seeds'"),
    ({"repeats": "1"}, "'repeats'"),
    ({"datasets": [{"name": "toy", "path": "toy.csv", "subsample": "40"}]}, "'subsample'"),
], ids=["list", "dataset-entry", "fractional-seed", "string-repeats", "string-subsample"])
def test_load_plan_rejects_malformed_plans(tmp_path, plan, match):
    if isinstance(plan, dict):
        plan = dict({"datasets": [{"name": "toy", "path": "toy.csv"}],
                     "models": ["tablediffusion"], "epsilons": [None],
                     "repeats": 1, "seeds": [0]}, **plan)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    with pytest.raises(ConfigError, match=match):
        load_plan(plan_path)


def test_dataset_subsample_is_deterministic(tmp_path):
    path, text = tiny_csv(tmp_path)
    spec = DatasetSpec("toy", str(path), subsample=20)
    a = load_plan_dataset(spec)
    b = load_plan_dataset(spec)
    assert a.rows == b.rows
    assert len(a.rows) == 20
    # subsampled rows keep their original relative order
    full = parse_table(text, infer_schema(text))
    positions = [full.rows.index(row) for row in a.rows]
    assert positions == sorted(positions)
    # no subsample requested: the table passes through whole
    assert len(load_plan_dataset(DatasetSpec("toy", str(path))).rows) == 60


@pytest.mark.parametrize("subsample", [0, -1])
def test_a_subsample_below_one_exits_1_naming_it(tmp_path, capsys, subsample):
    with pytest.raises(ConfigError, match="subsample"):
        DatasetSpec("toy", "toy.csv", subsample=subsample)
    path, _ = tiny_csv(tmp_path)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(path), "subsample": subsample}],
        "models": ["tablediffusion"], "epsilons": [None], "repeats": 1, "seeds": [0],
        "options": FAST_OPTIONS,
    }))
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--plan", str(plan_path), "--out", str(out_dir)]) == 1
    assert "subsample" in capsys.readouterr().err
    assert not out_dir.exists()


def test_dataset_with_explicit_schema(tmp_path):
    path, text = tiny_csv(tmp_path)
    schema = infer_schema(text)
    schema_path = tmp_path / "toy.schema.json"
    save_schema(schema, schema_path)
    table = load_plan_dataset(DatasetSpec("toy", str(path), str(schema_path)))
    assert table.schema == schema


def test_run_cell_reports_privacy_metadata(tmp_path):
    path, _ = tiny_csv(tmp_path)
    table = load_plan_dataset(DatasetSpec("toy", str(path)))
    report = run_cell(table, "tablediffusion", epsilon=1.0, seed=0,
                      options=dict(FAST_OPTIONS, sigma=1.5, batch_target=2, epochs=5))
    meta = report.metadata
    assert meta["model"] == "tablediffusion"
    assert meta["epsilon_target"] == 1.0
    assert meta["epsilon_spent"] is not None
    assert meta["epsilon_spent"] <= 1.0
    assert meta["steps"] >= 1
    assert meta["n_synth"] == len(table.rows)


def test_run_cell_rejects_unknown_options(tmp_path):
    path, _ = tiny_csv(tmp_path)
    table = load_plan_dataset(DatasetSpec("toy", str(path)))
    with pytest.raises(ConfigError, match="tempurature"):
        run_cell(table, "tablediffusion", None, 0, options={"tempurature": 2})


@pytest.mark.parametrize("model", ["tablediffusion", "dpwgan"])
@pytest.mark.parametrize("key, value", [
    ("epochs", True), ("batch_target", 64.9), ("clip_norm", True), ("sigma", "1.5"),
])
def test_run_cell_rejects_a_wrongly_typed_option_naming_it(tmp_path, model, key, value):
    path, _ = tiny_csv(tmp_path)
    table = load_plan_dataset(DatasetSpec("toy", str(path)))
    with pytest.raises(ConfigError, match=repr(key)):
        run_cell(table, model, 1.0, 0, options=dict(FAST_OPTIONS, **{key: value}))


def test_a_zero_sigma_fails_its_cell(tmp_path):
    # sigma must be positive when set; only an omitted sigma is calibrated
    path, _ = tiny_csv(tmp_path)
    table = load_plan_dataset(DatasetSpec("toy", str(path)))
    with pytest.raises(PrivacyError, match="noise multiplier"):
        run_cell(table, "tablediffusion", 1.0, 0, options=dict(FAST_OPTIONS, sigma=0))
    rows, failures = run_benchmark(
        small_plan(path, epsilons=(1.0,), options=dict(FAST_OPTIONS, sigma=0)),
        tmp_path / "out")
    assert rows == []
    assert len(failures) == 1 and "PrivacyError" in failures[0]["error"]
    assert json.loads((tmp_path / "out" / "failures.json").read_text()) == failures


def test_sweep_writes_reports_and_aggregates(tmp_path):
    path, _ = tiny_csv(tmp_path)
    plan = small_plan(path, models=("tablediffusion", "dpwgan"),
                      repeats=2, seeds=(0, 1))
    out = tmp_path / "out"
    rows, failures = run_benchmark(plan, out)
    assert failures == []
    reports = sorted(p.name for p in out.glob("*.report.json"))
    assert reports == [
        "toy_dpwgan_epsnone_seed0.report.json",
        "toy_dpwgan_epsnone_seed1.report.json",
        "toy_tablediffusion_epsnone_seed0.report.json",
        "toy_tablediffusion_epsnone_seed1.report.json",
    ]
    assert [r["model"] for r in rows] == ["dpwgan", "tablediffusion"]
    for row in rows:
        assert row["n_seeds"] == 2
        assert row["epsilon"] == "none"

    # aggregate means must equal the arithmetic mean of the report files
    per_seed = [
        json.loads((out / f"toy_tablediffusion_epsnone_seed{s}.report.json").read_text())
        for s in (0, 1)
    ]
    td_row = rows[1]
    expected = np.mean([p["pmse_ratio"] for p in per_seed])
    assert td_row["pmse_ratio_mean"] == pytest.approx(expected, rel=1e-12)

    with open(out / "results.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2
    assert parsed[1]["model"] == "tablediffusion"
    assert float(parsed[1]["pmse_ratio_mean"]) == pytest.approx(expected, rel=1e-12)


def test_failed_cells_are_recorded_and_skipped(tmp_path):
    path, _ = tiny_csv(tmp_path)
    # sigma < 0 only matters when a budget is set: the unprivatized cell
    # runs, the privatized one fails, the sweep finishes either way.
    plan = small_plan(path, epsilons=(None, 1.0),
                      options=dict(FAST_OPTIONS, sigma=-1.0))
    out = tmp_path / "out"
    rows, failures = run_benchmark(plan, out)
    assert len(rows) == 1
    assert rows[0]["epsilon"] == "none"
    assert len(failures) == 1
    assert failures[0]["epsilon"] == "1"
    assert "PrivacyError" in failures[0]["error"]
    recorded = json.loads((out / "failures.json").read_text())
    assert recorded == failures


def test_aggregate_math():
    def report(ratio):
        return FidelityReport(ratio, 0.5, 0.4, 0.3, 0.12, ())

    rows = aggregate_reports({("d", "m", 1.0): [report(1.0), report(3.0)]})
    assert rows[0]["pmse_ratio_mean"] == 2.0
    assert rows[0]["pmse_ratio_std"] == 1.0
    assert rows[0]["epsilon"] == "1"
    assert rows[0]["n_seeds"] == 2


def test_worker_count_respects_env(monkeypatch):
    monkeypatch.setenv("TABSYNTH_THREADS", "2")
    assert worker_count(8) == 2
    assert worker_count(1) == 1
    monkeypatch.delenv("TABSYNTH_THREADS")
    assert worker_count(4) == 1


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_worker_count_rejects_a_bad_thread_cap(monkeypatch, value):
    monkeypatch.setenv("TABSYNTH_THREADS", value)
    with pytest.raises(ConfigError, match="TABSYNTH_THREADS"):
        worker_count(2)


@pytest.mark.parametrize("delta", [0, -1e-5, 1, 1.5])
def test_a_plan_delta_outside_the_unit_interval_fails_at_load_naming_it(tmp_path, capsys,
                                                                         delta):
    path, _ = tiny_csv(tmp_path)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(path)}], "models": ["tablediffusion"],
        "epsilons": [1.0], "repeats": 1, "seeds": [0], "delta": delta,
        "options": FAST_OPTIONS}))
    with pytest.raises(ConfigError, match="'delta'"):
        load_plan(plan_path)
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--plan", str(plan_path), "--out", str(out_dir)]) == 1
    assert "'delta'" in capsys.readouterr().err
    assert not out_dir.exists()  # no cell ran
