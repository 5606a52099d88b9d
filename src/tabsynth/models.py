"""Model facade: one entry point to train, sample, save and load.

Bundles are sorted-key JSON. From format version 2 the float arrays
(parameters and Adam moments) are stored as base64 of their raw
little-endian float64 bytes, so a load restores every value bit for bit and
save -> load -> sample reproduces the exact bytes that sampling before the
save would have produced. Version 1 bundles, which hold those arrays as JSON
number lists, still load.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .accountant import RdpLedger, to_epsilon_delta
from .diffusion import (DENOISER, NOISE_PREDICTOR, DiffusionConfig, TrainedDiffusion,
                        sample_diffusion, train_diffusion)
from .encoding import ColumnSpan, EncodedMatrix, decode
from .errors import BundleError, ConfigError
from .gan import DPWGAN, GanConfig, TrainedGan, sample_gan, train_dpwgan
from .nn import AdamState, Network
from .privacy import PrivacyParams
from .schema import ColumnKind, RawTable, TableSchema

FORMAT_VERSION = 2
MODEL_KINDS = (NOISE_PREDICTOR, DENOISER, DPWGAN)
_EPSILON_TOLERANCE = 1e-9  # stored epsilon_spent against the ledger's


def train_model(matrix: EncodedMatrix, config: DiffusionConfig | GanConfig,
                seed: int) -> TrainedDiffusion | TrainedGan:
    if isinstance(config, DiffusionConfig):
        return train_diffusion(matrix, config, seed)
    if isinstance(config, GanConfig):
        return train_dpwgan(matrix, config, seed)
    raise ConfigError(f"unknown config type {type(config).__name__}")


def option_fields(kind: str) -> dict[str, tuple[type, object]]:
    """The options ``make_config`` reads for a model kind, each as (annotated
    type, default): the fields of its config class other than ``variant`` and
    ``privacy``."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; choose one of {', '.join(MODEL_KINDS)}")
    config = GanConfig if kind == DPWGAN else DiffusionConfig
    types = get_type_hints(config)
    return {f.name: (types[f.name], f.default) for f in fields(config)
            if f.name not in ("variant", "privacy")}


def option_keys(kind: str) -> frozenset[str]:
    """The options ``make_config`` reads for a model kind."""
    return frozenset(option_fields(kind))


def make_config(kind: str, privacy: PrivacyParams | None = None, **options):
    """Build the right config dataclass for a model kind from flat options;
    an option the kind does not read is a ConfigError that names it."""
    unknown = sorted(set(options) - option_keys(kind))
    if unknown:
        raise ConfigError(f"{kind} does not read option(s): {', '.join(unknown)}")
    if kind == DPWGAN:
        return GanConfig(privacy=privacy, **options)
    return DiffusionConfig(variant=kind, privacy=privacy, **options)


def sample_encoded(model, rows: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(model, TrainedDiffusion):
        return sample_diffusion(model, rows, rng)
    if isinstance(model, TrainedGan):
        return sample_gan(model, rows, rng)
    raise ConfigError(f"cannot sample from {type(model).__name__}")


def sample_table(model, rows: int, seed: int) -> RawTable:
    rng = np.random.default_rng(seed)
    return decode(sample_encoded(model, rows, rng), model.schema)


def _spans_to_json(spans) -> list[dict]:
    return [
        {"column": s.column, "kind": s.kind.value, "start": s.start, "width": s.width}
        for s in spans
    ]


def _spans_from_json(payload) -> tuple[ColumnSpan, ...]:
    return tuple(
        ColumnSpan(s["column"], ColumnKind(s["kind"]), int(s["start"]), int(s["width"]))
        for s in payload
    )


def _array_to_json(array: np.ndarray) -> str:
    raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _array_from_json(value, version: int, name: str) -> np.ndarray:
    """Decode one float array: a number list in v1, base64 of <f8 bytes in v2."""
    if version == 1:
        if not isinstance(value, list):
            raise BundleError(f"{name} must be a list of numbers in a v1 bundle")
        array = np.asarray(value, dtype=np.float64)
    else:
        if not isinstance(value, str):
            raise BundleError(f"{name} must be a base64 string in a v{version} bundle")
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise BundleError(f"{name} is not valid base64: {exc}") from exc
        if len(raw) % 8:
            raise BundleError(f"{name} holds {len(raw)} bytes, not a whole number of float64s")
        array = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(array).all():
        raise BundleError(f"{name} holds non-finite values")
    return array


def _adam_to_json(state: AdamState) -> dict:
    return {"m": _array_to_json(state.m), "v": _array_to_json(state.v), "t": state.t}


def _adam_from_json(payload, version: int, n_params: int, where: str) -> AdamState:
    moments = []
    for key in ("m", "v"):
        moment = _array_from_json(payload[key], version, f"{where}adam.{key}")
        if moment.shape != (n_params,):
            raise BundleError(f"{where}adam.{key} holds {moment.shape[0]} values "
                              f"for {n_params} parameters")
        moments.append(moment)
    t = payload["t"]
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise BundleError(f"{where}adam.t must be a non-negative integer, got {t!r}")
    return AdamState(*moments, t)


def _config_to_json(config) -> dict:
    payload = asdict(config)
    if config.privacy is not None:
        payload["privacy"] = asdict(config.privacy)
    return payload


def _config_from_json(kind: str, payload: dict):
    payload = dict(payload)
    privacy = payload.pop("privacy", None)
    if privacy is not None:
        privacy = PrivacyParams(**privacy)
    payload.pop("variant", None)
    return make_config(kind, privacy=privacy, **payload)


def bundle_dict(model: TrainedDiffusion | TrainedGan) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "schema": model.schema.to_json_dict(),
        "spans": _spans_to_json(model.spans),
        "config": _config_to_json(model.config),
        "ledger": model.ledger.to_state(),
        "epsilon_spent": model.epsilon_spent,
        "delta": model.delta,
        "seed": model.seed,
    }
    if isinstance(model, TrainedGan):
        payload["layer_specs"] = model.generator.layer_specs()
        payload["parameters"] = _array_to_json(model.generator.params)
        payload["adam"] = _adam_to_json(model.adam_generator)
        payload["critic"] = {
            "layer_specs": model.critic.layer_specs(),
            "parameters": _array_to_json(model.critic.params),
            "adam": _adam_to_json(model.adam_critic),
        }
    else:
        payload["layer_specs"] = model.network.layer_specs()
        payload["parameters"] = _array_to_json(model.network.params)
        payload["adam"] = _adam_to_json(model.adam)
    return payload


def save_bundle(model: TrainedDiffusion | TrainedGan, path: str | Path) -> None:
    text = json.dumps(bundle_dict(model), sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _network_from_json(payload: dict, version: int,
                       where: str = "") -> tuple[Network, AdamState]:
    """One network and its Adam state, from the keys a bundle stores for it."""
    parameters = _array_from_json(payload["parameters"], version, f"{where}parameters")
    try:
        network = Network.from_specs(payload["layer_specs"], parameters)
    except (ValueError, KeyError, TypeError) as exc:
        raise BundleError(f"cannot rebuild network: {exc}") from exc
    return network, _adam_from_json(payload["adam"], version, network.n_params, where)


def _checked_epsilon(payload: dict, privacy: PrivacyParams | None,
                     ledger: RdpLedger) -> float | None:
    """The stored epsilon_spent, once it agrees with the ledger and the stored
    delta with the config; both are null in an unprivatized bundle."""
    spent, delta = payload["epsilon_spent"], payload["delta"]
    if privacy is None:
        if spent is not None or delta is not None:
            raise BundleError("an unprivatized bundle must store null epsilon_spent and delta")
        return None
    if delta != privacy.delta:
        raise BundleError(f"stored delta {delta!r} is not the config's {privacy.delta!r}")
    spent, epsilon = float(spent), to_epsilon_delta(ledger, privacy.delta)
    if not abs(spent - epsilon) <= _EPSILON_TOLERANCE:
        raise BundleError(f"stored epsilon_spent {spent!r} is not the ledger's {epsilon!r}")
    return spent


def model_from_dict(payload: dict) -> TrainedDiffusion | TrainedGan:
    try:
        version = payload["format_version"]
        if version not in (1, FORMAT_VERSION):
            raise BundleError(f"unsupported bundle format version {version!r}")
        kind = payload["kind"]
        if kind not in MODEL_KINDS:
            raise BundleError(f"unknown model kind {kind!r}")
        schema = TableSchema.from_json_dict(payload["schema"])
        spans = _spans_from_json(payload["spans"])
        config = _config_from_json(kind, payload["config"])
        ledger = RdpLedger.from_state(payload["ledger"])
        epsilon_spent = _checked_epsilon(payload, config.privacy, ledger)
        seed = int(payload["seed"])
        network, adam = _network_from_json(payload, version)
        if kind == DPWGAN:
            critic, adam_critic = _network_from_json(payload["critic"], version, "critic.")
            return TrainedGan(
                kind=kind, schema=schema, spans=spans, generator=network,
                critic=critic, adam_generator=adam, adam_critic=adam_critic,
                config=config, ledger=ledger, epsilon_spent=epsilon_spent,
                seed=seed,
            )
        return TrainedDiffusion(
            kind=kind, schema=schema, spans=spans, network=network, adam=adam,
            config=config, ledger=ledger, epsilon_spent=epsilon_spent, seed=seed,
        )
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle: {exc}") from exc
    except Exception as exc:  # schema/privacy validation failures
        raise BundleError(f"invalid bundle contents: {exc}") from exc


def load_bundle(path: str | Path) -> TrainedDiffusion | TrainedGan:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BundleError(f"bundle {path} must be a JSON object")
    return model_from_dict(payload)
