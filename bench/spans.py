"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``WRAPPED`` with a timing
wrapper under every name a ``tabsynth`` module looks it up by (so
``tabsynth.diffusion.privatize_batch_gradient`` is wrapped as well as
``tabsynth.privacy.privatize_batch_gradient``), and wraps the methods of
``Network``, ``Dense`` and ``GroupNorm`` on the class.  ``uninstall`` puts
the originals back.  Spans stay in memory until ``dump``.

A function that a later change removes or renames is skipped, and its call
count then reads 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# layer -> public functions of tabsynth.<layer>; "Class.method" wraps on the class.
WRAPPED: dict[str, tuple[str, ...]] = {
    "cli": ("main", "build_parser", "cmd_train", "cmd_sample", "cmd_evaluate",
            "cmd_project"),
    "schema": ("infer_schema", "parse_table", "load_table", "table_to_text",
               "write_table", "load_schema", "save_schema"),
    "encoding": ("column_spans", "encode", "decode"),
    "nn": ("Network.forward", "Network.backward", "Dense.forward",
           "Dense.backward", "GroupNorm.forward", "GroupNorm.backward",
           "adam_step", "build_generator", "build_critic", "layer_from_spec"),
    "privacy": ("clip_per_sample", "privatize_batch_gradient", "poisson_sample",
                "gaussian_sigma", "budget_exhausted"),
    "accountant": ("rdp_subsampled_gaussian", "fresh_ledger", "accumulate_step",
                   "count_step", "to_epsilon_delta"),
    "diffusion": ("cosine_beta_schedule", "noise_step", "denoiser_loss_grads",
                  "noise_loss_grads", "train_diffusion", "sample_diffusion"),
    "gan": ("train_dpwgan", "sample_gan"),
    "models": ("train_model", "make_config", "sample_encoded", "sample_table",
               "bundle_dict", "save_bundle", "model_from_dict", "load_bundle"),
    "metrics": ("fit_logistic", "pmse_expected", "pmse_ratio", "ks_distance",
                "gamma_q", "chi2_distance", "marginal_distance",
                "precision_recall_curves", "auprc", "jacobi_eigh",
                "pca_projection_histogram", "evaluate"),
}

# The program's own sweep module is not part of any measured pipeline.
_SKIPPED_MODULES = ("tabsynth.benchmark",)

COUNT_METRICS = tuple(f"calls.{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)

LAYER_METRICS = (
    "schema.load_s", "schema.load_calls", "schema.write_s",
    "encoding.encode_s", "encoding.decode_s",
    "nn.forward_s", "nn.backward_per_sample_s", "nn.backward_batch_s",
    "nn.backward_calls", "nn.dense_s", "nn.group_norm_s", "nn.adam_s",
    "nn.per_sample_grad_mb",
    "privacy.draws", "privacy.rows_drawn", "privacy.poisson_s",
    "privacy.privatize_s", "privacy.budget_check_s",
    "accountant.steps_charged", "accountant.charge_s", "accountant.epsilon_s",
    "accountant.epsilon_calls",
    "diffusion.train_self_s", "diffusion.sample_s",
    "gan.train_self_s", "gan.sample_s",
    "models.save_s", "models.load_s", "models.bundle_mb",
    "metrics.pmse_s", "metrics.marginal_s", "metrics.prc_s", "metrics.pca_s",
    "metrics.eigh_s",
    "cli.self_s",
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, round, extra]
        self.stack: list[int] = []
        self.round = 0
        self.installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, extra=None):
        tracer = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.round, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        names = ("tabsynth",) + tuple(f"tabsynth.{m}" for m in _all_submodules())
        modules = [importlib.import_module(n) for n in names if n not in _SKIPPED_MODULES]
        for layer, functions in WRAPPED.items():
            home = importlib.import_module(f"tabsynth.{layer}")
            for qualified in functions:
                name = f"{layer}.{qualified}"
                extra = _EXTRAS.get(name)
                if "." in qualified:
                    cls_name, method = qualified.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is not None and method in vars(cls):
                        self._replace(cls, method, self._wrap(vars(cls)[method], name, extra))
                    continue
                original = getattr(home, qualified, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, extra)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self, round_index: int) -> dict[str, float]:
        """Per-layer metrics of one traced round."""
        first = next(i for i, s in enumerate(self.spans) if s[4] == round_index)
        spans = [s for s in self.spans[first:] if s[4] == round_index]
        child = defaultdict(float)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, seconds, extra = defaultdict(int), defaultdict(float), defaultdict(float)
        # budget_exhausted charges a hypothetical step and converts it to
        # epsilon; the accountant metrics leave that work to budget_check_s.
        unchecked_calls, unchecked_seconds = defaultdict(int), defaultdict(float)
        self_time = defaultdict(float)  # by outermost function of a same-layer chain
        owner: dict[int, str] = {}
        in_check: dict[int, bool] = {}
        for i, (name, start, end, parent, _, x) in enumerate(spans, start=first):
            duration = end - start
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            in_check[i] = parent >= 0 and (in_check[parent] or parent_name == "privacy.budget_exhausted")
            calls[name] += 1
            seconds[name] += duration
            extra[name] += x
            if not in_check[i]:
                unchecked_calls[name] += 1
                unchecked_seconds[name] += duration
            owner[i] = owner[parent] if parent_name.split(".")[0] == name.split(".")[0] else name
            self_time[owner[i]] += duration - child[i]

        m = {c: float(calls[c[len("calls."):]]) for c in COUNT_METRICS}
        m.update({
            "schema.load_s": seconds["schema.load_table"],
            "schema.load_calls": float(calls["schema.load_table"]),
            "schema.write_s": seconds["schema.write_table"],
            "encoding.encode_s": seconds["encoding.encode"],
            "encoding.decode_s": seconds["encoding.decode"],
            "nn.forward_s": seconds["nn.Network.forward"],
            "nn.backward_per_sample_s": _split(spans, "nn.Network.backward", True),
            "nn.backward_batch_s": _split(spans, "nn.Network.backward", False),
            "nn.backward_calls": float(calls["nn.Network.backward"]),
            "nn.dense_s": seconds["nn.Dense.forward"] + seconds["nn.Dense.backward"],
            "nn.group_norm_s": seconds["nn.GroupNorm.forward"] + seconds["nn.GroupNorm.backward"],
            "nn.adam_s": seconds["nn.adam_step"],
            "nn.per_sample_grad_mb": extra["nn.Network.backward"] / 1e6,
            "privacy.draws": float(calls["privacy.poisson_sample"]),
            "privacy.rows_drawn": extra["privacy.poisson_sample"],
            "privacy.poisson_s": seconds["privacy.poisson_sample"],
            "privacy.privatize_s": seconds["privacy.privatize_batch_gradient"],
            "privacy.budget_check_s": seconds["privacy.budget_exhausted"],
            "accountant.steps_charged": float(unchecked_calls["accountant.accumulate_step"]),
            "accountant.charge_s": unchecked_seconds["accountant.accumulate_step"],
            "accountant.epsilon_s": unchecked_seconds["accountant.to_epsilon_delta"],
            "accountant.epsilon_calls": float(unchecked_calls["accountant.to_epsilon_delta"]),
            "diffusion.train_self_s": self_time["diffusion.train_diffusion"],
            "diffusion.sample_s": seconds["diffusion.sample_diffusion"],
            "gan.train_self_s": self_time["gan.train_dpwgan"],
            "gan.sample_s": seconds["gan.sample_gan"],
            "models.save_s": seconds["models.save_bundle"],
            "models.load_s": seconds["models.load_bundle"],
            "models.bundle_mb": extra["models.save_bundle"] / 1e6,
            "metrics.pmse_s": seconds["metrics.pmse_ratio"],
            "metrics.marginal_s": seconds["metrics.marginal_distance"],
            "metrics.prc_s": seconds["metrics.precision_recall_curves"] + seconds["metrics.auprc"],
            "metrics.pca_s": seconds["metrics.pca_projection_histogram"],
            "metrics.eigh_s": seconds["metrics.jacobi_eigh"],
            "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
        })
        return m

    def dump(self, path: Path) -> None:
        """Write every span: name, start, end, parent index, round, extra.

        ``extra`` holds per-sample gradient bytes for ``Network.backward``,
        rows for ``poisson_sample`` and file bytes for ``save_bundle``.
        """
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "round", "extra"],
            "spans": self.spans,
        }) + "\n", encoding="utf-8")


def _split(spans, name: str, per_sample: bool) -> float:
    # extra > 0 marks a per-sample backward (it holds the gradient matrix bytes)
    return float(sum(s[2] - s[1] for s in spans if s[0] == name and (s[5] > 0) == per_sample))


def _all_submodules() -> tuple[str, ...]:
    import tabsynth
    root = Path(tabsynth.__file__).parent
    return tuple(sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__"))


def _per_sample_bytes(args, kwargs, result) -> float:
    """Network.backward(self, caches, loss_grads, per_sample=True)."""
    per_sample = kwargs.get("per_sample", args[3] if len(args) > 3 else True)
    if not per_sample:
        return 0.0
    grads = result[0]
    return float(grads.shape[0] * grads.shape[1] * 8)


def _rows_drawn(args, kwargs, result) -> float:
    return float(len(result))


def _bundle_bytes(args, kwargs, result) -> float:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return float(os.path.getsize(path))


_EXTRAS = {
    "nn.Network.backward": _per_sample_bytes,
    "privacy.poisson_sample": _rows_drawn,
    "models.save_bundle": _bundle_bytes,
}
