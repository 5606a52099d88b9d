"""End-to-end command-line runs: happy paths, exit codes, reproducibility."""

import csv
import json

import numpy as np
import pytest

from tabsynth import cli
from tabsynth.cli import LOG_COLUMNS, build_parser, main
from tabsynth.encoding import encode
from tabsynth.metrics import pca_projection_histogram
from tabsynth.models import option_keys
from tabsynth.privacy import TrainingDriver
from tabsynth.schema import infer_schema, load_table

FAST = ["--epochs", "2", "--batch", "512"]


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["c,x,y"]
    for _ in range(60):
        lines.append(f"{'uv'[rng.integers(2)]},{rng.random():.6f},{rng.random():.6f}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def train_args(data_csv, out, extra=()):
    return ["train", "--data", str(data_csv), "--model", "tablediffusion",
            "--out", str(out), *FAST, *extra]


def test_train_sample_evaluate_round_trip(tmp_path, data_csv, capsys):
    bundle = tmp_path / "model.json"
    assert main(train_args(data_csv, bundle)) == 0
    out = capsys.readouterr()
    assert "epsilon spent -" in out.out  # unprivatized
    assert out.err == ""
    assert bundle.exists()

    log_path = tmp_path / "model.json.log.csv"
    with open(log_path, newline="") as fh:
        entries = list(csv.DictReader(fh))
    assert tuple(entries[0].keys()) == LOG_COLUMNS
    assert len(entries) == 2  # one full batch per epoch at this size
    assert all(e["epsilon"] == "" for e in entries)

    synth = tmp_path / "synthetic.csv"
    assert main(["sample", "--model", str(bundle), "--rows", "40",
                 "--out", str(synth), "--seed", "3"]) == 0
    table = load_table(synth)
    assert len(table.rows) == 40

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--real", str(data_csv), "--synth", str(synth),
                 "--out", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "pMSE" in printed and "AUPRC" in printed
    report = json.loads(report_path.read_text())
    assert set(report) >= {"pmse_ratio", "marginal_distance", "auprc"}


def test_training_is_byte_reproducible(tmp_path, data_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(train_args(data_csv, a, extra=["--seed", "5"])) == 0
    assert main(train_args(data_csv, b, extra=["--seed", "5"])) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.log.csv").read_bytes() == (tmp_path / "b.json.log.csv").read_bytes()

    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    for out in (sa, sb):
        assert main(["sample", "--model", str(a), "--rows", "25",
                     "--out", str(out), "--seed", "9"]) == 0
    assert sa.read_bytes() == sb.read_bytes()


def test_default_seed_is_zero(tmp_path, data_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(train_args(data_csv, a)) == 0
    assert main(train_args(data_csv, b, extra=["--seed", "0"])) == 0
    assert a.read_bytes() == b.read_bytes()


def test_privatized_training_reports_epsilon(tmp_path, data_csv, capsys):
    bundle = tmp_path / "model.json"
    assert main(train_args(
        data_csv, bundle,
        extra=["--epsilon", "1.0", "--sigma", "1.5", "--batch", "2", "--epochs", "5"],
    )) == 0
    out = capsys.readouterr()
    assert "warning: batch size 2" in out.err
    assert "epsilon spent -" not in out.out
    payload = json.loads(bundle.read_text())
    assert payload["epsilon_spent"] is not None
    assert payload["epsilon_spent"] <= 1.0


def test_config_file_with_flag_overrides(tmp_path, data_csv):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "data": str(data_csv), "model": "tablediffusion",
        "epochs": 1, "batch": 512, "out": str(tmp_path / "from_cfg.json"),
    }))
    assert main(["train", "--config", str(cfg), "--epochs", "3"]) == 0
    with open(tmp_path / "from_cfg.json.log.csv", newline="") as fh:
        entries = list(csv.DictReader(fh))
    assert len(entries) == 3  # the flag beat the config file


def test_unknown_config_keys_are_rejected(tmp_path, data_csv, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({
        "data": str(data_csv), "model": "tablediffusion", "epoch": 2,
        "out": str(tmp_path / "typo_model.json"),
    }))
    assert main(["train", "--config", str(cfg)]) == 1
    assert "unknown config key(s) for train: epoch" in capsys.readouterr().err
    assert not (tmp_path / "typo_model.json").exists()  # nothing was trained
    # model options that only a config file sets are accepted
    cfg.write_text(json.dumps({
        "data": str(data_csv), "model": "tablediffusion", "epochs": 1,
        "width": 8, "blocks": 1, "out": str(tmp_path / "ok.json"),
    }))
    assert main(["train", "--config", str(cfg)]) == 0
    # sample reads only model, rows and seed; evaluate reads no key at all
    cfg.write_text(json.dumps({"model": str(tmp_path / "ok.json"), "rows": 5,
                               "epochs": 3}))
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 1
    cfg.write_text(json.dumps({"rows": 5}))
    assert main(["evaluate", "--config", str(cfg), "--real", str(data_csv),
                 "--synth", str(data_csv)]) == 1
    cfg.write_text("{}")
    assert main(["evaluate", "--config", str(cfg), "--real", str(data_csv),
                 "--synth", str(data_csv)]) == 0


def test_a_model_key_the_chosen_model_does_not_read_exits_1(tmp_path, data_csv, capsys):
    cfg = tmp_path / "gan_key.json"
    cfg.write_text(json.dumps({"latent_dim": 8}))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(cfg), *train_args(data_csv, out)[1:]]) == 1
    assert "latent_dim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("delta", None), ("epochs", "two"), ("lr", [1]),
                                        ("schema", 5)])
def test_a_wrongly_typed_config_value_exits_1_naming_the_key(tmp_path, data_csv, capsys,
                                                             key, value):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(cfg), "--data", str(data_csv), "--model",
                 "tablediffusion", "--epsilon", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("data", 5), ("data", ["data.csv"]), ("out", 7)])
def test_a_config_path_that_is_not_a_string_exits_1_before_the_data_is_read(
        tmp_path, data_csv, capsys, monkeypatch, key, value):
    read = []
    monkeypatch.setattr(cli, "load_table", lambda *a: read.append(a) or load_table(*a))
    monkeypatch.chdir(tmp_path)  # a bundle written under a default name lands here
    cfg = tmp_path / "paths.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "model": "tablediffusion",
                               "out": "m.json", key: value}))
    assert main(["train", "--config", str(cfg), *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: option {key!r} must be a string, got ")
    assert read == [] and sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "paths.json"]


def test_a_sample_config_model_path_that_is_not_a_string_exits_1(tmp_path, capsys):
    cfg = tmp_path / "sample.json"
    cfg.write_text(json.dumps({"model": 5, "rows": 3}))
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: option 'model' must be a string, got 5\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--epsilon", "1", "--sigma", "nan"],
    ["--epsilon", "1", "--lr", "nan"],
    ["--lr", "inf"],
    ["--epsilon", "nan"],
])
def test_a_non_finite_flag_exits_1_and_writes_no_bundle(tmp_path, data_csv, capsys, flags):
    out = tmp_path / "m.json"
    assert main(train_args(data_csv, out, extra=flags)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that diverges
@pytest.mark.parametrize("model", ["tablediffusion", "dpwgan"])
def test_a_diverged_run_exits_1_naming_the_lr_and_writes_nothing(tmp_path, data_csv, capsys,
                                                                 model):
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(data_csv), "--model", model, "--lr", "1e300",
                 "--out", str(out), *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and "(lr)" in err
    assert not out.exists()
    assert not (tmp_path / "m.json.log.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that diverges
@pytest.mark.parametrize("model", ["tablediffusion", "dpwgan"])
def test_a_diverged_run_stops_at_its_first_non_finite_loss(tmp_path, data_csv, capsys,
                                                           monkeypatch, model):
    rows = []
    record = TrainingDriver.record
    monkeypatch.setattr(TrainingDriver, "record",
                        lambda self, *row: (rows.append(row), record(self, *row)))
    out = tmp_path / "m.json"
    # 40 epochs log 40 diffusion rows or 240 DP-WGAN rows; the first update
    # at lr 1e300 makes the next loss non-finite.
    assert main(["train", "--data", str(data_csv), "--model", model, "--lr", "1e300",
                 "--epochs", "40", "--batch", "512", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and "loss is" in err and "(lr)" in err
    assert len(rows) <= 8 and rows[-1][0] == 1  # stopped in the second epoch
    assert not out.exists()
    assert not (tmp_path / "m.json.log.csv").exists()


@pytest.mark.parametrize("argv", [["train", "--model", "tablediffusion", "--seed", "-2"],
                                  ["sample", "--rows", "5", "--seed", "-1"]])
def test_a_negative_seed_exits_1_before_any_file_is_read(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing")  # reading it would exit 2
    assert main([*argv, "--data" if argv[0] == "train" else "--model", missing]) == 1
    assert "'seed' must be >= 0" in capsys.readouterr().err


def test_a_non_finite_config_value_exits_1_naming_the_key(tmp_path, data_csv, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"sigma": NaN}')
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(cfg), "--data", str(data_csv), "--model",
                 "tablediffusion", "--epsilon", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'sigma'" in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("model, key, value", [
    ("tablediffusion", "width", "8"),
    ("tablediffusion", "width", None),
    ("tablediffusion", "blocks", 1.5),
    ("dpwgan", "latent_dim", "8"),
    ("dpwgan", "critic_steps", "2"),
    ("dpwgan", "weight_clamp", [0.01]),
    ("dpwgan", "generator_lr", "0.1"),
    ("dpwgan", "critic_lr", None),
])
def test_a_wrongly_typed_model_key_exits_1_naming_the_key(tmp_path, data_csv, capsys,
                                                          model, key, value):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(cfg), "--data", str(data_csv), "--model", model,
                 "--epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["tablediffusion", "dpwgan"])
@pytest.mark.parametrize("key, value", [("width", -1), ("width", 0), ("blocks", -1)])
def test_a_non_positive_network_size_exits_1_naming_the_key(tmp_path, data_csv, capsys,
                                                            model, key, value):
    cfg = tmp_path / "size.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(cfg), "--data", str(data_csv), "--model", model,
                 "--epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_a_schema_with_a_string_integer_flag_exits_2_naming_the_column(tmp_path, data_csv,
                                                                       capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "c", "kind": "categorical", "vocabulary": ["u", "v"]},
        {"name": "x", "kind": "continuous", "min": 0, "max": 1, "integer_valued": "false"},
        {"name": "y", "kind": "continuous", "min": 0, "max": 1}]}))
    assert main(["train", "--data", str(data_csv), "--schema", str(schema), "--model",
                 "tablediffusion", "--epochs", "1", "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err


def test_model_keys_take_the_type_of_their_config_field(tmp_path, data_csv):
    # an integer is a valid float option; both land in the bundle's config
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"width": 8, "blocks": 1, "generator_lr": 1, "critic_steps": 2}))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(cfg), "--data", str(data_csv), "--model", "dpwgan",
                 "--epochs", "1", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["width"], config["blocks"], config["critic_steps"]) == (8, 1, 2)
    assert config["generator_lr"] == 1.0 and isinstance(config["generator_lr"], float)


def test_batch_size_warning_only_outside_tuned_range(tmp_path, data_csv, capsys):
    assert main(train_args(data_csv, tmp_path / "m.json", extra=["--batch", "100"])) == 0
    assert "outside the tuned range" in capsys.readouterr().err
    assert main(train_args(data_csv, tmp_path / "m2.json", extra=["--batch", "64"])) == 0
    assert "outside the tuned range" not in capsys.readouterr().err


def test_exit_codes_for_bad_configuration(tmp_path, data_csv):
    # epsilon <= 0 is a domain error, and it outranks any data problem
    assert main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--model", "tablediffusion", "--epsilon", "0"]) == 1
    # missing required option
    assert main(["train", "--model", "tablediffusion"]) == 1
    # unknown model via config file (argparse never sees it)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "model": "copula"}))
    assert main(["train", "--config", str(cfg)]) == 1
    # diffusion-only flag on the adversarial model
    assert main(["train", "--data", str(data_csv), "--model", "dpwgan",
                 "--steps-T", "3"]) == 1
    # sampling fewer than one row
    assert main(["sample", "--model", str(tmp_path / "m.json"), "--rows", "0"]) == 1


@pytest.mark.parametrize("flags, named", [
    (["--epsilon", "0"], "epsilon"),
    (["--epsilon", "1", "--sigma", "-1"], "noise multiplier"),
    (["--epsilon", "1", "--clip", "0"], "clipping norm"),
    (["--epsilon", "1", "--delta", "2"], "delta"),
    (["--sigma", "-1"], "noise multiplier"),
    (["--clip", "0"], "clipping norm"),
    (["--delta", "2"], "delta"),
])
def test_a_bad_privacy_option_exits_1_before_the_data_is_read(tmp_path, capsys, flags, named):
    assert main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--model", "tablediffusion", *flags]) == 1
    assert named in capsys.readouterr().err


def test_exit_codes_for_bad_input(tmp_path, data_csv):
    # unreadable training data
    assert main(["train", "--data", str(tmp_path / "missing.csv"),
                 "--model", "tablediffusion"]) == 2
    # corrupt bundle
    bundle = tmp_path / "corrupt.json"
    bundle.write_text("{ nope")
    assert main(["sample", "--model", str(bundle), "--rows", "5"]) == 2
    # config file that is not JSON
    cfg = tmp_path / "broken.json"
    cfg.write_text("not json at all")
    assert main(["train", "--config", str(cfg)]) == 2
    # config file holding a JSON array
    cfg.write_text("[1, 2]")
    assert main(["train", "--config", str(cfg)]) == 1
    # a well-formed file whose labels violate the real schema is a domain
    # error, not an I/O one
    bad_synth = tmp_path / "bad.csv"
    bad_synth.write_text("c,x,y\nzebra,0.5,0.5\n")
    assert main(["evaluate", "--real", str(data_csv), "--synth", str(bad_synth)]) == 1
    # whereas a file that cannot be parsed at all is
    bad_synth.write_text("c,x,y\nu,not-a-number,0.5\n")
    assert main(["evaluate", "--real", str(data_csv), "--synth", str(bad_synth)]) == 2


def test_sample_rejects_a_corrupt_v2_bundle(tmp_path, data_csv, capsys):
    bundle = tmp_path / "model.json"
    assert main(train_args(data_csv, bundle)) == 0
    payload = json.loads(bundle.read_text())
    assert payload["format_version"] == 2
    payload["parameters"] = payload["parameters"][:-3]
    bundle.write_text(json.dumps(payload))
    out = tmp_path / "synth.csv"
    assert main(["sample", "--model", str(bundle), "--rows", "5", "--out", str(out)]) == 2
    assert not out.exists()


def test_sample_rejects_a_bundle_with_a_wrongly_typed_config_value(tmp_path, data_csv,
                                                                   capsys):
    bundle = tmp_path / "model.json"
    assert main(train_args(data_csv, bundle)) == 0
    payload = json.loads(bundle.read_text())
    payload["config"]["epochs"] = True
    bundle.write_text(json.dumps(payload))
    out = tmp_path / "synth.csv"
    assert main(["sample", "--model", str(bundle), "--rows", "5", "--out", str(out)]) == 2
    assert "'epochs'" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_a_bundle_whose_epsilon_disagrees_with_its_ledger(tmp_path, data_csv,
                                                                       capsys):
    bundle = tmp_path / "model.json"
    assert main(train_args(data_csv, bundle, extra=["--epsilon", "1", "--sigma", "1.5"])) == 0
    payload = json.loads(bundle.read_text())
    assert payload["epsilon_spent"] is not None
    payload["epsilon_spent"] = 50.0
    bundle.write_text(json.dumps(payload))
    out = tmp_path / "synth.csv"
    assert main(["sample", "--model", str(bundle), "--rows", "5", "--out", str(out)]) == 2
    assert "epsilon_spent" in capsys.readouterr().err
    assert not out.exists()


def test_project_writes_grid_and_basis(tmp_path, data_csv, capsys):
    out = tmp_path / "proj.csv"
    assert main(["project", "--real", str(data_csv), "--synth", str(data_csv),
                 "--bins", "8", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "real_count", "other_count"]
    assert len(rows) == 1 + 8 * 8
    counts = [int(r[2]) for r in rows[1:]]
    assert sum(counts) == 60
    basis = json.loads((tmp_path / "proj.csv.basis.json").read_text())
    assert basis["bins"] == 8
    assert len(basis["components"]) == 2
    assert "wrote projection grid" in capsys.readouterr().out


def test_project_writes_each_cell_of_both_grids_row_by_row(tmp_path, data_csv):
    rng = np.random.default_rng(1)
    lines = ["c,x,y"] + [f"{'uv'[rng.integers(2)]},{rng.random() ** 2:.6f},{rng.random():.6f}"
                         for _ in range(45)]
    synth_csv = tmp_path / "synth.csv"
    synth_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "proj.csv"
    assert main(["project", "--real", str(data_csv), "--synth", str(synth_csv),
                 "--bins", "5", "--out", str(out)]) == 0
    real = load_table(data_csv)
    result = pca_projection_histogram(encode(real), encode(load_table(synth_csv, real.schema)),
                                      bins=5)
    # neither grid is symmetric and they differ, so a writer that swapped
    # row and column, or the two grids, would write other rows
    assert not np.array_equal(result.real_grid, result.other_grid)
    assert not np.array_equal(result.real_grid, result.real_grid.T)
    assert not np.array_equal(result.other_grid, result.other_grid.T)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[str(i), str(j), str(int(result.real_grid[i, j])),
                     str(int(result.other_grid[i, j]))] for i in range(5) for j in range(5)]


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_project_rejects_fewer_than_one_bin(tmp_path, data_csv, capsys, bins):
    out = tmp_path / "proj.csv"
    assert main(["project", "--real", str(data_csv), "--synth", str(data_csv),
                 "--bins", bins, "--out", str(out)]) == 1
    assert f"bins must be >= 1, got {bins}" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_command(tmp_path, data_csv, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(data_csv)}],
        "models": ["tablediffusion"],
        "epsilons": [None],
        "repeats": 1,
        "seeds": [0],
        "options": {"width": 8, "blocks": 1, "epochs": 1, "batch_target": 512},
    }))
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--plan", str(plan), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    printed = capsys.readouterr().out
    assert "toy tablediffusion eps=none" in printed
    assert "results.csv" in printed


def test_schema_flag_is_honored(tmp_path, data_csv):
    text = data_csv.read_text()
    schema = infer_schema(text)
    from tabsynth.schema import save_schema

    schema_path = tmp_path / "s.json"
    save_schema(schema, schema_path)
    bundle = tmp_path / "m.json"
    assert main(train_args(data_csv, bundle, extra=["--schema", str(schema_path)])) == 0
    payload = json.loads(bundle.read_text())
    names = [c["name"] for c in payload["schema"]["columns"]]
    assert names == ["c", "x", "y"]


def _shift_spans(payload):
    for span in payload["spans"]:
        span["start"] -= 1


def _drop_spans(payload):
    del payload["spans"][1:]


def _swap_variant(payload):
    payload["config"]["variant"] = "tablediffusion"


@pytest.mark.parametrize("edit", [_shift_spans, _drop_spans, _swap_variant],
                         ids=["spans-shifted", "spans-dropped", "variant-not-kind"])
def test_sample_rejects_a_bundle_whose_layout_disagrees_with_its_schema_or_kind(
        tmp_path, data_csv, capsys, edit):
    bundle = tmp_path / "model.json"
    assert main(["train", "--data", str(data_csv), "--model", "tablediffusion-denoiser",
                 "--out", str(bundle), *FAST]) == 0
    payload = json.loads(bundle.read_text())
    edit(payload)
    bundle.write_text(json.dumps(payload))
    out = tmp_path / "synth.csv"
    assert main(["sample", "--model", str(bundle), "--rows", "5", "--out", str(out)]) == 2
    assert "not match" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["evaluate", "--real", "r.csv", "--synth", "s.csv"],
                                  ["project", "--real", "r.csv", "--synth", "s.csv"],
                                  ["benchmark", "--plan", "plan.json"]])
def test_only_train_and_sample_take_a_seed(capsys, argv):
    build_parser().parse_args(argv)  # valid without the seed
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


MODEL_OPTIONS = [(model, key) for model in ("tablediffusion", "dpwgan")
                 for key in sorted(option_keys(model))]


@pytest.mark.parametrize("model, key", MODEL_OPTIONS,
                         ids=[f"{model}-{key}" for model, key in MODEL_OPTIONS])
def test_an_out_of_range_model_option_exits_1_naming_it(tmp_path, data_csv, capsys,
                                                       model, key):
    out = tmp_path / "m.json"
    argv = ["train", "--data", str(data_csv), "--model", model, "--out", str(out)]
    if key == "batch_target":  # set by --batch, not by the config file
        argv += ["--batch", "0"]
    else:
        cfg = tmp_path / "range.json"
        cfg.write_text(json.dumps({key: -1 if key == "blocks" else 0}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("model, kinds", [("tablediffusion", {"diffusion"}),
                                          ("dpwgan", {"critic", "generator"})])
def test_a_private_log_leaves_un_noised_losses_blank(tmp_path, data_csv, model, kinds):
    rows = {}
    for name, extra in (("private", ["--epsilon", "5", "--sigma", "2"]), ("plain", [])):
        out = tmp_path / f"{name}.json"
        assert main(["train", "--data", str(data_csv), "--model", model, "--out", str(out),
                     "--epochs", "2", "--batch", "32", *extra]) == 0
        with open(f"{out}.log.csv", newline="") as fh:
            rows[name] = list(csv.DictReader(fh))
    for name in rows:
        assert {row["kind"] for row in rows[name]} == kinds
    # an unprivatized log keeps every loss; a private one only the generator's,
    # which comes from the private critic alone
    assert all(row["loss"] != "" for row in rows["plain"])
    for row in rows["private"]:
        assert (row["loss"] != "") == (row["kind"] == "generator")
        assert row["epsilon"] != ""
