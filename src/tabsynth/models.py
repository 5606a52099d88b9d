"""Model facade: one entry point to train, sample, save and load.

Both trainers return the training driver's ``TrainedModel``; its ``kind``
picks the sampler, and a bundle stores its sampling network at top level
and, for the DP-WGAN, the critic under ``critic``.

Bundles are sorted-key JSON. From format version 2 the float arrays
(parameters and Adam moments) are stored as base64 of their raw
little-endian float64 bytes, so a load restores every value bit for bit and
save -> load -> sample reproduces the exact bytes that sampling before the
save would have produced. Version 1 bundles, which hold those arrays as JSON
number lists, still load. A load lays the column spans out from the stored
schema and rejects a bundle whose stored spans, diffusion ``variant`` or
network widths disagree with its schema and ``kind``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .accountant import RdpLedger, to_epsilon_delta
from .diffusion import VARIANTS, DiffusionConfig, sample_diffusion, train_diffusion
from .encoding import EncodedMatrix, column_spans, decode
from .errors import BundleError, ConfigError
from .gan import DPWGAN, GanConfig, sample_gan, train_dpwgan
from .nn import AdamState, Dense, Network, ResidualConcatBlock, check_generator
from .privacy import PrivacyParams, TrainedModel
from .schema import RawTable, TableSchema

FORMAT_VERSION = 2
MODEL_KINDS = (*VARIANTS, DPWGAN)
_EPSILON_TOLERANCE = 1e-9  # stored epsilon_spent against the ledger's


def train_model(matrix: EncodedMatrix, config: DiffusionConfig | GanConfig,
                seed: int) -> TrainedModel:
    if isinstance(config, DiffusionConfig):
        return train_diffusion(matrix, config, seed)
    if isinstance(config, GanConfig):
        return train_dpwgan(matrix, config, seed)
    raise ConfigError(f"unknown config type {type(config).__name__}")


def option_keys(kind: str) -> frozenset[str]:
    """The options ``make_config`` reads for a model kind: the fields of its
    config class other than ``variant`` and ``privacy``."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; choose one of {', '.join(MODEL_KINDS)}")
    config = GanConfig if kind == DPWGAN else DiffusionConfig
    return frozenset(f.name for f in fields(config) if f.name not in ("variant", "privacy"))


def make_config(kind: str, privacy: PrivacyParams | None = None, **options):
    """Build the right config dataclass for a model kind from flat options;
    an option the kind does not read, or a value of the wrong type, is a
    ConfigError that names it."""
    unknown = sorted(set(options) - option_keys(kind))
    if unknown:
        raise ConfigError(f"{kind} does not read option(s): {', '.join(unknown)}")
    if kind == DPWGAN:
        return GanConfig(privacy=privacy, **options)
    return DiffusionConfig(variant=kind, privacy=privacy, **options)


def sample_encoded(model: TrainedModel, rows: int, rng: np.random.Generator) -> np.ndarray:
    if not isinstance(model, TrainedModel):
        raise ConfigError(f"cannot sample from {type(model).__name__}")
    return (sample_gan if model.kind == DPWGAN else sample_diffusion)(model, rows, rng)


def sample_table(model, rows: int, seed: int) -> RawTable:
    rng = np.random.default_rng(seed)
    return decode(sample_encoded(model, rows, rng), model.schema)


def _spans_to_json(spans) -> list[dict]:
    return [asdict(s) for s in spans]  # ColumnKind is a str enum: JSON writes its value


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


def _network_to_json(net: Network, adam: AdamState) -> dict:
    """The keys a bundle stores for one network and its Adam state."""
    return {"layer_specs": net.layer_specs(), "parameters": _array_to_json(net.params),
            "adam": _adam_to_json(adam)}


def _count_from_json(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise BundleError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _adam_from_json(payload, version: int, n_params: int, where: str) -> AdamState:
    moments = []
    for key in ("m", "v"):
        moment = _array_from_json(payload[key], version, f"{where}adam.{key}")
        if moment.shape != (n_params,):
            raise BundleError(f"{where}adam.{key} holds {moment.shape[0]} values "
                              f"for {n_params} parameters")
        moments.append(moment)
    return AdamState(*moments, _count_from_json(payload["t"], f"{where}adam.t"))


def _config_from_json(kind: str, payload: dict):
    payload = dict(payload)
    privacy = payload.pop("privacy", None)
    variant = payload.pop("variant", None)
    if variant != (None if kind == DPWGAN else kind):
        raise BundleError(f"stored config variant {variant!r} does not match kind {kind!r}")
    return make_config(kind, privacy=None if privacy is None else PrivacyParams(**privacy),
                       **payload)


def bundle_dict(model: TrainedModel) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "schema": model.schema.to_json_dict(),
        "spans": _spans_to_json(model.spans),
        "config": asdict(model.config),  # privacy too: asdict recurses
        "ledger": model.ledger.to_state(),
        "epsilon_spent": model.epsilon_spent,
        "delta": model.delta,
        "seed": model.seed,
        **_network_to_json(model.generator, model.adam),
    }
    if model.critic is not None:
        payload["critic"] = _network_to_json(model.critic, model.adam_critic)
    return payload


def save_bundle(model: TrainedModel, path: str | Path) -> None:
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


def _check_widths(net: Network, source: int, target: int, what: str) -> None:
    """Raise BundleError unless the network's Dense and residual layers
    chain ``source`` features to ``target``."""
    dims = [(layer.in_dim, layer.out_dim) for layer in net.layers
            if isinstance(layer, (Dense, ResidualConcatBlock))]
    if [d for d, _ in dims] != [source, *(d for _, d in dims[:-1])] or dims[-1][1] != target:
        raise BundleError(f"{what} layers map {dims} features, not a chain "
                          f"from {source} to {target}")


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


def model_from_dict(payload: dict) -> TrainedModel:
    try:
        version = payload["format_version"]
        if version not in (1, FORMAT_VERSION):
            raise BundleError(f"unsupported bundle format version {version!r}")
        kind = payload["kind"]
        if kind not in MODEL_KINDS:
            raise BundleError(f"unknown model kind {kind!r}")
        schema = TableSchema.from_json_dict(payload["schema"])
        spans = column_spans(schema)
        if payload["spans"] != _spans_to_json(spans):
            raise BundleError("stored spans do not match the column layout of the schema")
        config = _config_from_json(kind, payload["config"])
        ledger = RdpLedger.from_state(payload["ledger"])
        epsilon_spent = _checked_epsilon(payload, config.privacy, ledger)
        seed = _count_from_json(payload["seed"], "seed")
        generator, adam = _network_from_json(payload, version)
        check_generator(generator)
        width = schema.encoded_width
        _check_widths(generator, config.latent_dim if kind == DPWGAN else width, width,
                      "generator")
        critic, adam_critic = None, None
        if kind == DPWGAN:
            critic, adam_critic = _network_from_json(payload["critic"], version, "critic.")
            _check_widths(critic, width, 1, "critic")
        return TrainedModel(kind, schema, spans, config, seed, generator, adam, ledger,
                            epsilon_spent, halted_on_budget=None, critic=critic,
                            adam_critic=adam_critic)
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle: {exc}") from exc
    except Exception as exc:  # schema/privacy validation failures
        raise BundleError(f"invalid bundle contents: {exc}") from exc


def load_bundle(path: str | Path) -> TrainedModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BundleError(f"bundle {path} must be a JSON object")
    return model_from_dict(payload)
