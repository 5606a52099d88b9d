"""Command-line interface: train / sample / evaluate / benchmark / project.

Every command reads an optional JSON config file (``--config``); explicit
flags override config keys, and a key the command does not read is a
configuration error.  Exit codes: 0 success, 1 configuration or
domain error, 2 unreadable or corrupt input.  All outputs are UTF-8 and
byte-reproducible for a fixed seed; only ``train`` and ``sample`` take
``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import benchmark as bench
from .diffusion import DiffusionConfig
from .errors import (BundleError, ConfigError, DegenerateDataError, ParseError,
                     TabsynthError, typed_number)
from .encoding import encode
from .gan import DPWGAN, GanConfig
from .metrics import DEFAULT_BINS, evaluate, pca_projection_histogram
from .models import (MODEL_KINDS, load_bundle, make_config, option_keys, sample_table,
                     save_bundle, train_model)
from .privacy import (DEFAULT_CLIP_NORM, DEFAULT_DELTA, ModelConfig, PrivacyParams,
                      build_privacy)
from .schema import load_schema, load_table, write_table

_INPUT_ERRORS = (ParseError, BundleError, DegenerateDataError, OSError,
                 json.JSONDecodeError)
_GOOD_BATCHES = {2 ** k for k in range(6, 12)}  # the tuned search space

LOG_COLUMNS = ("epoch", "batch", "kind", "loss", "epsilon")


def _merge_config(args: argparse.Namespace, keys: tuple[str, ...],
                  file_keys: tuple[str, ...] = ()) -> dict:
    """Config-file values first, explicit flags on top.

    ``keys`` may come from a flag or the file, ``file_keys`` from the file
    only; a file key the command does not read is a ConfigError.
    """
    merged: dict = {}
    if args.config:
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(payload) - set(keys) - set(file_keys))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        merged.update(payload)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required option {key!r} (flag or config file)")
    return cfg[key]


def _number(cfg: dict, key: str, kind: type, default=None):
    """``cfg[key]`` as ``kind`` (int or float), or ``default`` when absent.

    Flags arrive typed, config-file values as parsed JSON.  Null stands for
    an absent key only where the default is None.
    """
    value = cfg.get(key)
    if value is None and (key not in cfg or default is None):
        return default
    return typed_number(key, value, kind)


def _seed(cfg: dict) -> int:
    seed = _number(cfg, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"option 'seed' must be >= 0, got {seed}")
    return seed


_TRAIN_KEYS = ("data", "schema", "model", "epsilon", "delta", "sigma", "clip",
               "batch", "epochs", "steps", "lr", "seed", "out")
# Model options that only a config file sets: every model kind's options but
# those a flag sets (--batch sets batch_target); their config class types them.
_MODEL_KEYS = tuple(frozenset().union(*map(option_keys, MODEL_KINDS))
                    - set(_TRAIN_KEYS) - {"batch_target"})


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _TRAIN_KEYS, _MODEL_KEYS)
    kind = _require(cfg, "model")
    epsilon = _number(cfg, "epsilon", float)
    delta = _number(cfg, "delta", float, DEFAULT_DELTA)
    sigma = _number(cfg, "sigma", float)
    clip = _number(cfg, "clip", float, DEFAULT_CLIP_NORM)
    seed = _seed(cfg)

    # Null leaves epochs, steps and lr unset; --lr sets both GAN rates, so
    # its value is typed here, under the key the user wrote.
    options = {key: cfg[key] for key in _MODEL_KEYS if key in cfg}
    options.update((key, cfg[key]) for key in ("epochs", "steps") if cfg.get(key) is not None)
    options["batch_target"] = _number(cfg, "batch", int, ModelConfig.batch_target)
    if cfg.get("lr") is not None:
        lr_keys = ("generator_lr", "critic_lr") if kind == DPWGAN else ("lr",)
        options.update(dict.fromkeys(lr_keys, typed_number("lr", cfg["lr"], float)))
    config = make_config(kind, **options)  # every option is checked before the data is read
    # and so are the privacy options, at q = 1; an unprivatized run ignores
    # --delta, --sigma and --clip, but they must still be in range
    if epsilon is None:
        PrivacyParams(1.0, delta, 1.0 if sigma is None else sigma, clip, 1.0)
    else:
        build_privacy(epsilon, delta, sigma, clip, 1, 1)

    schema = load_schema(cfg["schema"]) if cfg.get("schema") else None
    table = load_table(_require(cfg, "data"), schema)
    if config.batch_target not in _GOOD_BATCHES:
        print(f"warning: batch size {config.batch_target} is outside the tuned range 2^6..2^11",
              file=sys.stderr)
    privacy = build_privacy(epsilon, delta, sigma, clip, config.batch_target, table.n_rows)
    model = train_model(encode(table), replace(config, privacy=privacy), seed)
    out = Path(cfg.get("out") or "model.json")
    save_bundle(model, out)
    log_path = Path(str(out) + ".log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS, lineterminator="\n")
        writer.writeheader()
        # A private run's diffusion and critic losses are un-noised means over
        # training rows, so their cells stay blank; a generator loss comes
        # from the private critic alone.
        writer.writerows(model.log if privacy is None else (
            row if row["kind"] == "generator" else {**row, "loss": None} for row in model.log))
    eps = "-" if model.epsilon_spent is None else f"{model.epsilon_spent:.4f}"
    print(f"trained {kind}: {model.ledger.steps_taken} steps, epsilon spent {eps}; "
          f"bundle {out}, log {log_path}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ("model", "rows", "seed"))
    rows = typed_number("rows", _require(cfg, "rows"), int)
    if rows < 1:
        raise ConfigError(f"rows must be >= 1, got {rows}")
    seed = _seed(cfg)
    model = load_bundle(_require(cfg, "model"))
    table = sample_table(model, rows, seed=seed)
    out = args.out or "synthetic.csv"
    write_table(table, out)
    print(f"wrote {rows} synthetic rows to {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _merge_config(args, ())  # reads no config key; rejects any
    real = load_table(args.real)
    synth = load_table(args.synth, real.schema)
    report = evaluate(real, synth)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"pMSE {report.pmse_ratio:.4f}  MD {report.marginal_distance:.4f}  "
          f"P {report.alpha_precision_integral:.4f}  R {report.beta_recall_integral:.4f}  "
          f"AUPRC {report.auprc:.4f}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    _merge_config(args, ())  # reads no config key; rejects any
    plan = bench.load_plan(args.plan)
    out_dir = args.out or "benchmark_out"
    rows, failures = bench.run_benchmark(plan, out_dir)
    for row in rows:
        print(f"{row['dataset']} {row['model']} eps={row['epsilon']}: "
              f"pMSE {row['pmse_ratio_mean']:.4f} MD {row['marginal_distance_mean']:.4f} "
              f"AUPRC {row['auprc_mean']:.4f} ({row['n_seeds']} seeds)")
    for fail in failures:
        print(f"FAILED {fail['dataset']} {fail['model']} eps={fail['epsilon']} "
              f"seed={fail['seed']}: {fail['error']}", file=sys.stderr)
    print(f"results in {Path(out_dir) / 'results.csv'}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    _merge_config(args, ())  # reads no config key; rejects any
    real = load_table(args.real)
    other = load_table(args.synth, real.schema)
    result = pca_projection_histogram(encode(real), encode(other), bins=args.bins)
    out = Path(args.out or "projection.csv")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "col", "real_count", "other_count"])
        for i in range(result.bins):
            for j in range(result.bins):
                writer.writerow([i, j, int(result.real_grid[i, j]),
                                 int(result.other_grid[i, j])])
    sidecar = Path(str(out) + ".basis.json")
    basis = {name: getattr(result, name).tolist()
             for name in ("eigenvalues", "components", "center", "box_min", "box_max")}
    sidecar.write_text(json.dumps({**basis, "bins": result.bins}, indent=2) + "\n",
                       encoding="utf-8")
    print(f"wrote projection grid {out} and basis {sidecar}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabsynth",
        description="Differentially private synthetic tabular data: train, sample, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output path")

    train = sub.add_parser("train", help="fit a generative model on a table")
    shared(train)
    train.add_argument("--seed", type=int, help="random seed (default 0)")
    train.add_argument("--data", help="CSV file with a header row")
    train.add_argument("--schema", help="optional schema JSON (else inferred)")
    train.add_argument("--model", choices=MODEL_KINDS, help="model kind")
    train.add_argument("--epsilon", type=float, help="privacy budget (omit for unprivatized)")
    train.add_argument("--delta", type=float, help=f"privacy delta (default {DEFAULT_DELTA:g})")
    train.add_argument("--sigma", type=float, help="noise multiplier (default: calibrated)")
    train.add_argument("--clip", type=float, help=f"gradient clip norm (default {DEFAULT_CLIP_NORM})")
    train.add_argument("--batch", type=int, help=f"Poisson batch target (default {ModelConfig.batch_target})")
    train.add_argument("--epochs", type=int, help=f"epoch cap (default {ModelConfig.epochs})")
    train.add_argument("--steps-T", dest="steps", type=int, default=None,
                       help=f"diffusion steps T (default {DiffusionConfig.steps})")
    train.add_argument("--lr", type=float,
                       help=f"learning rate (default {DiffusionConfig.lr:g}); for dpwgan, "
                            f"generator_lr and critic_lr (default {GanConfig.generator_lr:g} "
                            f"and {GanConfig.critic_lr:g})")
    train.set_defaults(fn=cmd_train)

    sample = sub.add_parser("sample", help="draw synthetic rows from a saved bundle")
    shared(sample)
    sample.add_argument("--seed", type=int, help="random seed (default 0)")
    sample.add_argument("--model", help="path to a model bundle")
    sample.add_argument("--rows", type=int, help="number of rows to draw")
    sample.set_defaults(fn=cmd_sample)

    ev = sub.add_parser("evaluate", help="score a synthetic table against the real one")
    shared(ev)
    ev.add_argument("--real", required=True)
    ev.add_argument("--synth", required=True)
    ev.set_defaults(fn=cmd_evaluate)

    bm = sub.add_parser("benchmark", help="run a plan of datasets x models x budgets x seeds")
    shared(bm)
    bm.add_argument("--plan", required=True, help="benchmark plan JSON")
    bm.set_defaults(fn=cmd_benchmark)

    proj = sub.add_parser("project", help="export PCA projection histograms")
    shared(proj)
    proj.add_argument("--real", required=True)
    proj.add_argument("--synth", required=True)
    proj.add_argument("--bins", type=int, default=DEFAULT_BINS)
    proj.set_defaults(fn=cmd_project)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TabsynthError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # every other package error (config, schema, privacy) is a domain error
        return 2 if isinstance(exc, _INPUT_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
