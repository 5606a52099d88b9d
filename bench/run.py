#!/usr/bin/env python3
"""tabsynth benchmark: CLI pipelines timed end to end, or traced per module.

    python3 bench/run.py --workload census-dp --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's CSV is written from the
benchmark's own seeded generator, then ``tabsynth.cli.main`` runs
``train`` -> ``sample`` -> ``evaluate`` -> ``project`` for each model, in
process, as whole rounds until ``--seconds`` have passed.  Every round uses
the same inputs and seeds, so its artifacts must hash the same as the first
round's.  The outputs of every command are checked against computations made
apart from the program (``oracles.py``).

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate, and the last line holds
the per-layer metrics of the traced ones (``spans.py``); the spans are
written to ``.benchrun/``.  See README.md.
"""

from __future__ import annotations

import os
import sys

THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)  # before numpy is imported anywhere

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchrun"

SETUP_PROBES = 5        # at least this many set-up probes ...
SETUP_PROBE_SECONDS = 3.0  # ... and more until this much time is spent on them

# census-dp: q = 128 / 10,000 and sigma = 1.5 reach epsilon 0.6290 after 4
# steps and 0.6348 after 5, so both models halt on budget after 4 updates.
CENSUS_EPSILON = 0.632
CENSUS_DELTA = 1e-5
CENSUS_SIGMA = 1.5
CENSUS_BATCH = 128


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    train_args: tuple[str, ...]
    seed_dependent: bool  # False: the inputs are the same for every --seed
    sample_rows: int | None = None  # None: as many as the real table holds


WORKLOADS = {
    w.name: w for w in (
        Workload("census-dp", ("tablediffusion", "dpwgan"),
                 ("--epsilon", str(CENSUS_EPSILON), "--delta", str(CENSUS_DELTA),
                  "--sigma", str(CENSUS_SIGMA), "--clip", "1",
                  "--batch", str(CENSUS_BATCH)), True, sample_rows=5_000),
        # c6's configuration (T=5, batch 512, lr 1e-3) for 8 of its 250
        # epochs; its mode-coverage criterion fails on today's sampler, and a
        # failure kept as an operation must not depend on the seed.
        Workload("ring-plain", ("tablediffusion",),
                 ("--batch", "512", "--epochs", "8", "--steps-T", "5", "--lr", "1e-3"), False),
        Workload("wide-release", ("tablediffusion-denoiser",),
                 ("--batch", "512", "--epochs", "1"), True),
    )
}

WIDE_ROWS = 10_000


@dataclass
class Round:
    traced: bool
    seconds: dict = field(default_factory=lambda: dict.fromkeys(
        ("train", "sample", "evaluate", "project"), 0.0))
    steps: int = 0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    known: list = field(default_factory=list)  # known program faults, not counted
    hashes: dict = field(default_factory=dict)
    fidelity: dict = field(default_factory=dict)
    modes: str = ""

    @property
    def pipeline(self) -> float:
        return sum(self.seconds.values())


class Pipeline:
    """One workload's inputs, oracles and artifact paths."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        import inputs
        import oracles
        self.w, self.work = workload, work
        data_seed = seed if workload.seed_dependent else 0
        self.train_seed, self.sample_seed = data_seed, data_seed + 1
        self.centers = None
        if workload.name == "census-dp":
            self.real = inputs.census_table(data_seed)
            self.oracle = oracles.PrivacyOracle(
                CENSUS_BATCH / self.real.n_rows, CENSUS_SIGMA, CENSUS_DELTA)
        elif workload.name == "ring-plain":
            self.real, self.centers = inputs.ring_table(data_seed)
        else:
            self.real = inputs.wide_table(data_seed, WIDE_ROWS)
        self.rows = workload.sample_rows or self.real.n_rows
        self.csv = work / "real.csv"
        self.csv.write_text(self.real.to_csv(), encoding="utf-8")

    def _command(self, rnd: Round, stage: str, argv: list[str]) -> bool:
        from tabsynth import cli
        rnd.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # each command starts from a collected heap, as in a new process
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = -1
            err.write(traceback.format_exc())
        rnd.seconds[stage] += time.perf_counter() - start
        if code != 0:
            rnd.failed += 1
            print(f"{stage} failed with code {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code == 0

    def run(self, traced: bool) -> Round:
        import oracles
        rnd = Round(traced)
        real = str(self.csv)
        for model in self.w.models:
            d = self.work / model
            d.mkdir(exist_ok=True)
            bundle, synth = d / "model.json", d / "synth.csv"
            report, grid = d / "report.json", d / "grid.csv"
            artifacts = (bundle, Path(f"{bundle}.log.csv"), synth, report, grid,
                         Path(f"{grid}.basis.json"))
            for path in artifacts:
                path.unlink(missing_ok=True)
            stages = [
                ("train", ["train", "--data", real, "--model", model,
                           "--seed", str(self.train_seed), "--out", str(bundle),
                           *self.w.train_args]),
                ("sample", ["sample", "--model", str(bundle), "--rows", str(self.rows),
                            "--seed", str(self.sample_seed), "--out", str(synth)]),
                ("evaluate", ["evaluate", "--real", real, "--synth", str(synth),
                              "--out", str(report)]),
                ("project", ["project", "--real", real, "--synth", str(synth),
                             "--out", str(grid)]),
            ]
            ok = True
            for stage, argv in stages:
                if not ok:  # a stage whose input is missing fails too
                    rnd.attempted += 1
                    rnd.failed += 1
                    continue
                ok = self._command(rnd, stage, argv)
                if not ok:
                    continue
                if stage == "train":
                    payload = json.loads(bundle.read_text(encoding="utf-8"))
                    rnd.steps += int(payload["ledger"]["steps"])
                    if self.w.name == "census-dp":
                        rnd.problems += oracles.check_privacy(bundle, self.oracle, CENSUS_EPSILON)
                elif stage == "sample":
                    rnd.rows += self.rows
                    problems, known = oracles.check_table(synth, self.real, self.rows)
                    rnd.problems += problems
                    rnd.known += known
                elif stage == "evaluate":
                    rnd.problems += oracles.check_report(report, self.real, synth)
                    r = json.loads(report.read_text(encoding="utf-8"))
                    rnd.fidelity[model] = {k: r[k] for k in (
                        "pmse_ratio", "marginal_distance", "auprc", "beta_recall_integral")}
                else:
                    rnd.problems += oracles.check_projection(grid, self.real, self.rows)
            for path in artifacts:
                if path.exists():
                    rnd.hashes[f"{model}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.centers is not None:
                # c6's criterion: at least 7 of 8 modes hold 2% of samples within 3 sigma
                rnd.attempted += 1
                covered, fractions = (oracles.modes_covered(synth, self.centers)
                                      if synth.exists() else (0, []))
                rnd.modes = f"{covered}/8 modes covered, fractions {[round(f, 3) for f in fractions]}"
                if not oracles.modes_ok(covered):
                    rnd.failed += 1
        return rnd


def setup_seconds(csv_path: Path) -> list[float]:
    """Import, load with schema inference, and encode, each in a new process."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_PROBES or time.perf_counter() - start < SETUP_PROBE_SECONDS:
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(csv_path)],
                              capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tabsynth" / "__init__.py").is_file():
        print(f"error: no tabsynth sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tabsynth
    if Path(tabsynth.__file__).resolve().parent != (SRC / "tabsynth").resolve():
        print(f"error: imported tabsynth from {tabsynth.__file__}", file=sys.stderr)
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    try:
        pipeline = Pipeline(workload, args.seed, work)
        # In a traced run the probes only bring the machine to the same state
        # as in an untraced one before the first round.
        setup = setup_seconds(pipeline.csv)

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        rounds: list[Round] = []
        start = time.perf_counter()
        while len(rounds) < 1 + args.trace or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                tracer.round = len(rounds)
                tracer.install()
            try:
                rounds.append(pipeline.run(traced))
            finally:
                if traced:
                    tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for i, r in enumerate(rounds[1:], start=1):
        if r.hashes != rounds[0].hashes:
            problems.append(f"round {i} artifacts differ from round 0: not deterministic")
    median = statistics.median
    plain = [r for r in rounds if not r.traced]

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"machine: nproc {THREADS}, numpy {numpy.__version__}, "
          f"BLAS {blas['name']} {blas['version']} with {THREADS} threads")
    print(f"workload {workload.name}, seed {args.seed}"
          + ("" if workload.seed_dependent else " (inputs do not depend on the seed)")
          + f", {len(rounds)} rounds, {pipeline.real.n_rows} real rows x "
          f"{pipeline.real.encoded_width} encoded features, {pipeline.rows} sampled")
    print("round seconds " + json.dumps([{"traced": r.traced, **r.seconds} for r in rounds]))
    print("fidelity " + json.dumps(rounds[0].fidelity, sort_keys=True))
    if rounds[0].modes:
        print("mode coverage: " + rounds[0].modes)
    print("hashes " + json.dumps(rounds[0].hashes, sort_keys=True))
    for p in problems:
        print("CHECK FAILED: " + p)
    for k in sorted({k for r in rounds for k in r.known}):
        print("KNOWN FAULT (encoding.decode rounding, not counted): " + k)

    if args.trace:
        traced_rounds = [i for i, r in enumerate(rounds) if r.traced]
        per_round = [tracer.metrics(i) for i in traced_rounds]
        metrics = {name: {"value": median([m[name] for m in per_round]), "unit": spans.unit(name)}
                   for name in spans.LAYER_METRICS + spans.COUNT_METRICS}
        overhead = (median([rounds[i].pipeline for i in traced_rounds])
                    - median([r.pipeline for r in plain]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (median(setup), "s"),
            "train_steps_per_s": (median([r.steps / r.seconds["train"] for r in plain]), "steps/s"),
            "sample_rows_per_s": (median([r.rows / r.seconds["sample"] for r in plain]), "rows/s"),
            "evaluate_s": (median([r.seconds["evaluate"] for r in plain]), "s"),
            "project_s": (median([r.seconds["project"] for r in plain]), "s"),
            "pipeline_s": (median([r.pipeline for r in plain]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
