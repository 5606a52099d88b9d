"""Bundle persistence: exact round trips and malformed-input handling."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from tabsynth.diffusion import DENOISER, NOISE_PREDICTOR, DiffusionConfig
from tabsynth.encoding import encode
from tabsynth.errors import BundleError, ConfigError
from tabsynth.gan import GanConfig
from tabsynth.models import (
    bundle_dict,
    load_bundle,
    make_config,
    model_from_dict,
    option_keys,
    sample_encoded,
    sample_table,
    save_bundle,
    train_model,
)
from tabsynth.privacy import PrivacyParams
from tabsynth.schema import ColumnKind, ColumnSchema, RawTable, TableSchema

SCHEMA = TableSchema((
    ColumnSchema("cat", ColumnKind.CATEGORICAL, vocabulary=("A", "B")),
    ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),
))


def tiny_matrix(n=30, seed=0):
    rng = np.random.default_rng(seed)
    rows = [("AB"[rng.integers(2)], float(rng.random())) for _ in range(n)]
    return encode(RawTable(SCHEMA, rows))


def diffusion_model(privacy=None, seed=0):
    config = DiffusionConfig(steps=2, batch_target=512, epochs=2, width=8,
                             blocks=1, privacy=privacy)
    return train_model(tiny_matrix(), config, seed)


def gan_model(seed=0):
    config = GanConfig(batch_target=512, epochs=1, latent_dim=8, width=8, blocks=1)
    return train_model(tiny_matrix(), config, seed)


def test_make_config_dispatch():
    assert isinstance(make_config(NOISE_PREDICTOR, epochs=5), DiffusionConfig)
    assert make_config(DENOISER).variant == DENOISER
    assert isinstance(make_config("dpwgan", critic_steps=3), GanConfig)
    with pytest.raises(ConfigError):
        make_config("copula")
    with pytest.raises(ConfigError):
        train_model(tiny_matrix(), object(), seed=0)
    with pytest.raises(ConfigError):
        sample_encoded(object(), 5, np.random.default_rng(0))


def test_make_config_rejects_options_the_model_does_not_read():
    assert option_keys(NOISE_PREDICTOR) == option_keys(DENOISER) == {
        "steps", "batch_target", "epochs", "lr", "width", "blocks"}
    assert option_keys("dpwgan") == {
        "batch_target", "epochs", "generator_lr", "critic_lr", "critic_steps",
        "latent_dim", "weight_clamp", "width", "blocks"}
    with pytest.raises(ConfigError, match="latent_dim"):
        make_config(NOISE_PREDICTOR, latent_dim=8)
    with pytest.raises(ConfigError, match="steps"):
        make_config("dpwgan", steps=3)
    with pytest.raises(ConfigError, match="copula"):
        option_keys("copula")


@pytest.mark.parametrize("kind, key, value", [
    (NOISE_PREDICTOR, "epochs", True),
    (NOISE_PREDICTOR, "steps", 2.0),
    (NOISE_PREDICTOR, "lr", "0.1"),
    ("dpwgan", "latent_dim", None),
    ("dpwgan", "weight_clamp", [0.01]),
])
def test_make_config_rejects_a_wrongly_typed_option_naming_it(kind, key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        make_config(kind, **{key: value})


def test_config_classes_store_ints_and_floats():
    # numpy scalars are accepted; an int given for a float field becomes a float
    config = make_config("dpwgan", epochs=np.int64(3), critic_lr=1, weight_clamp=np.float32(0.5))
    assert type(config.epochs) is int and config.epochs == 3
    assert type(config.critic_lr) is float and config.critic_lr == 1.0
    assert type(config.weight_clamp) is float and config.weight_clamp == 0.5
    privacy = PrivacyParams(epsilon_target=1, delta=1e-5, sigma=np.int32(2), clip_norm=1,
                            sample_rate=1)
    assert all(type(v) is float for v in vars(privacy).values())
    with pytest.raises(ConfigError, match="'sigma'"):
        PrivacyParams(epsilon_target=1.0, delta=1e-5, sigma="1.5", clip_norm=1.0,
                      sample_rate=0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float32("nan"), 10**400],
                         ids=["nan", "inf", "-inf", "float32-nan", "int-beyond-float"])
def test_config_classes_refuse_non_finite_floats(value):
    with pytest.raises(ConfigError, match="'lr'.*finite"):
        DiffusionConfig(lr=value)
    with pytest.raises(ConfigError, match="'critic_lr'.*finite"):
        GanConfig(critic_lr=value)
    with pytest.raises(ConfigError, match="'sigma'.*finite"):
        PrivacyParams(epsilon_target=1.0, delta=1e-5, sigma=value, clip_norm=1.0,
                      sample_rate=0.5)


def test_load_rejects_a_non_finite_config_value():
    edited = json.loads(json.dumps(bundle_dict(diffusion_model())))
    edited["config"]["lr"] = float("nan")
    with pytest.raises(BundleError, match="'lr'"):
        model_from_dict(edited)


def test_load_rejects_a_wrongly_typed_config_value():
    payload = bundle_dict(diffusion_model())
    edited = json.loads(json.dumps(payload))
    edited["config"]["epochs"] = True
    with pytest.raises(BundleError, match="'epochs'"):
        model_from_dict(edited)


@pytest.mark.parametrize("config_class", [DiffusionConfig, GanConfig])
@pytest.mark.parametrize("key, value", [("width", -1), ("width", 0), ("blocks", -1)])
def test_config_classes_reject_a_non_positive_network_size(config_class, key, value):
    with pytest.raises(ConfigError, match=key):
        config_class(**{key: value})
    assert config_class(blocks=0).blocks == 0  # a head-only generator


def test_a_loaded_bundle_does_not_know_how_its_run_ended(tmp_path):
    model = diffusion_model(privacy=PRIVACY)
    assert model.halted_on_budget is True
    path = tmp_path / "model.json"
    save_bundle(model, path)
    assert load_bundle(path).halted_on_budget is None


def test_diffusion_round_trip_is_exact(tmp_path):
    model = diffusion_model()
    before = sample_table(model, 20, seed=123)
    path = tmp_path / "model.json"
    save_bundle(model, path)

    loaded = load_bundle(path)
    np.testing.assert_array_equal(loaded.generator.params, model.generator.params)
    assert loaded.schema == model.schema
    assert loaded.spans == model.spans
    assert loaded.config == model.config
    assert loaded.epsilon_spent is None
    assert loaded.seed == model.seed
    assert loaded.ledger.steps_taken == model.ledger.steps_taken
    after = sample_table(loaded, 20, seed=123)
    assert after.rows == before.rows


def test_gan_round_trip_is_exact(tmp_path):
    model = gan_model()
    before = sample_table(model, 15, seed=7)
    path = tmp_path / "model.json"
    save_bundle(model, path)

    loaded = load_bundle(path)
    np.testing.assert_array_equal(loaded.generator.params, model.generator.params)
    np.testing.assert_array_equal(loaded.critic.params, model.critic.params)
    assert loaded.config == model.config
    assert sample_table(loaded, 15, seed=7).rows == before.rows


def test_privatized_epsilon_survives_the_round_trip(tmp_path):
    privacy = PrivacyParams(
        epsilon_target=1.0, delta=1e-5, sigma=1.5, clip_norm=1.0, sample_rate=0.032
    )
    model = diffusion_model(privacy=privacy)
    assert model.epsilon_spent is not None
    path = tmp_path / "model.json"
    save_bundle(model, path)
    loaded = load_bundle(path)
    assert loaded.epsilon_spent == model.epsilon_spent
    assert loaded.delta == 1e-5
    assert loaded.config.privacy == privacy
    # restored ledger reports the same epsilon and keeps accumulating
    assert loaded.ledger.steps_taken == model.ledger.steps_taken


PRIVACY = PrivacyParams(epsilon_target=1.0, delta=1e-5, sigma=1.5, clip_norm=1.0,
                        sample_rate=0.032)


@pytest.mark.parametrize("edit", [
    lambda p: p.update(epsilon_spent=float("nan")),
    lambda p: p.update(epsilon_spent=-3.0),
    lambda p: p.update(epsilon_spent=50.0),
    lambda p: p.update(delta=0.5),
    lambda p: p["ledger"].update(steps=0),
], ids=["epsilon-nan", "epsilon-negative", "epsilon-above-ledger", "delta", "zero-steps"])
def test_load_rejects_privacy_metadata_the_ledger_does_not_back(edit):
    payload = bundle_dict(diffusion_model(privacy=PRIVACY))
    assert payload["ledger"]["steps"] > 0
    model_from_dict(payload)  # the untouched payload loads
    edited = json.loads(json.dumps(payload))
    edit(edited)
    with pytest.raises(BundleError):
        model_from_dict(edited)


@pytest.mark.parametrize("key,value", [("epsilon_spent", 0.5), ("delta", 1e-5)])
def test_unprivatized_bundles_store_no_privacy_metadata(key, value):
    payload = bundle_dict(diffusion_model())
    assert payload["epsilon_spent"] is None and payload["delta"] is None
    with pytest.raises(BundleError):
        model_from_dict(dict(payload, **{key: value}))


def test_saving_is_byte_deterministic(tmp_path):
    model = diffusion_model()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_bundle(model, a)
    save_bundle(model, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "bundle.json"

    path.write_text("{ not json")
    with pytest.raises(BundleError):
        load_bundle(path)

    path.write_text("[1, 2, 3]")
    with pytest.raises(BundleError):
        load_bundle(path)

    model = diffusion_model()
    save_bundle(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # truncation
    with pytest.raises(BundleError):
        load_bundle(path)


def test_load_rejects_bad_payloads():
    payload = bundle_dict(diffusion_model())

    wrong_version = dict(payload, format_version=99)
    with pytest.raises(BundleError, match="version"):
        model_from_dict(wrong_version)

    wrong_kind = dict(payload, kind="vae")
    with pytest.raises(BundleError, match="kind"):
        model_from_dict(wrong_kind)

    missing = dict(payload)
    del missing["parameters"]
    with pytest.raises(BundleError):
        model_from_dict(missing)

    short_params = dict(payload, parameters=payload["parameters"][:-3])
    with pytest.raises(BundleError):
        model_from_dict(short_params)

    bad_layer = dict(payload, layer_specs=[{"type": "mystery"}])
    with pytest.raises(BundleError):
        model_from_dict(bad_layer)


def test_sample_table_decodes_into_schema(tmp_path):
    model = diffusion_model()
    table = sample_table(model, 50, seed=1)
    assert table.schema == SCHEMA
    assert len(table.rows) == 50
    table.validate()
    for label, x in table.rows:
        assert label in ("A", "B")
        assert 0.0 <= x <= 1.0


def _networks(payload):
    """The keys of each network a bundle payload stores: generator, then critic."""
    return [payload] + ([payload["critic"]] if "critic" in payload else [])


def _floats(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def as_v1(payload):
    """The same bundle in format version 1: float arrays as JSON number lists."""
    payload = json.loads(json.dumps(payload))
    payload["format_version"] = 1
    for net in _networks(payload):
        net["parameters"] = _floats(net["parameters"]).tolist()
        for key in ("m", "v"):
            net["adam"][key] = _floats(net["adam"][key]).tolist()
    return payload


def test_adam_state_round_trips_exactly(tmp_path):
    diffusion, gan = diffusion_model(), gan_model()
    for model, attr in [(diffusion, "adam"), (gan, "adam"), (gan, "adam_critic")]:
        state = getattr(model, attr)
        assert state.t > 0 and np.any(state.m != 0) and np.any(state.v != 0)
        path = tmp_path / f"{attr}.json"
        save_bundle(model, path)
        loaded = getattr(load_bundle(path), attr)
        np.testing.assert_array_equal(loaded.m, state.m)
        np.testing.assert_array_equal(loaded.v, state.v)
        assert loaded.t == state.t


def test_bundle_keys_are_sorted_and_arrays_are_base64(tmp_path):
    path = tmp_path / "model.json"
    model = gan_model()
    save_bundle(model, path)

    def check_sorted(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    payload = json.loads(path.read_text(), object_pairs_hook=check_sorted)
    assert payload["format_version"] == 2
    assert isinstance(payload["ledger"]["steps"], int)
    np.testing.assert_array_equal(_floats(payload["critic"]["parameters"]),
                                  model.critic.params)


def test_bundle_layout_of_each_model_kind():
    shared = {"format_version", "kind", "schema", "spans", "config", "ledger",
              "epsilon_spent", "delta", "seed", "layer_specs", "parameters", "adam"}
    assert set(bundle_dict(diffusion_model())) == shared
    payload = bundle_dict(gan_model())
    assert set(payload) == shared | {"critic"}
    assert set(payload["critic"]) == {"layer_specs", "parameters", "adam"}
    assert set(payload["adam"]) == set(payload["critic"]["adam"]) == {"m", "v", "t"}


def test_v1_bundles_still_load():
    for model in (diffusion_model(), gan_model()):
        payload = bundle_dict(model)
        v1 = as_v1(payload)
        assert isinstance(v1["parameters"], list)
        from_v1, from_v2 = model_from_dict(v1), model_from_dict(payload)
        assert sample_table(from_v1, 25, seed=3).rows == sample_table(from_v2, 25, seed=3).rows
        assert sample_table(from_v1, 25, seed=3).rows == sample_table(model, 25, seed=3).rows


def _corrupt(payload, net, field, value):
    payload = json.loads(json.dumps(payload))
    node = _networks(payload)[net]
    target = node if field == "parameters" else node["adam"]
    target[field] = value(target[field])
    return payload


@pytest.mark.parametrize("net", [0, 1])
@pytest.mark.parametrize("field,value", [
    ("parameters", lambda s: "not base64 at all!"),
    ("parameters", lambda s: base64.b64encode(base64.b64decode(s)[:-3]).decode()),
    ("parameters", lambda s: _b64(_floats(s)[:-1])),
    ("parameters", lambda s: _floats(s).tolist()),
    ("parameters", lambda s: _b64(np.where(np.arange(_floats(s).size) == 2, np.nan, _floats(s)))),
    ("m", lambda s: _b64(_floats(s)[:5])),
    ("v", lambda s: _b64(_floats(s)[:-1])),
    ("m", lambda s: _b64(np.append(_floats(s)[:-1], np.inf))),
    ("t", lambda t: -1),
    ("t", lambda t: 2.5),
], ids=["non-base64", "partial-float", "one-float-short", "list-in-v2", "nan-parameter",
        "short-adam-m", "short-adam-v", "inf-adam-m", "negative-t", "float-t"])
def test_load_rejects_corrupt_v2_arrays(net, field, value):
    payload = bundle_dict(gan_model())
    model_from_dict(payload)  # the untouched payload loads
    with pytest.raises(BundleError):
        model_from_dict(_corrupt(payload, net, field, value))


def test_load_rejects_corrupt_v1_arrays():
    v1 = as_v1(bundle_dict(diffusion_model()))
    model_from_dict(v1)
    bad = [
        dict(v1, parameters=[float("nan")] + v1["parameters"][1:]),
        dict(v1, parameters=_b64(v1["parameters"])),  # base64 in a v1 bundle
        dict(v1, adam=dict(v1["adam"], v=v1["adam"]["v"][:5])),
        dict(v1, adam=dict(v1["adam"], m=[float("inf")] * len(v1["adam"]["m"]))),
    ]
    for payload in bad:
        with pytest.raises(BundleError):
            model_from_dict(payload)


@pytest.mark.parametrize("edit", [
    lambda p: [span.update(start=span["start"] - 1) for span in p["spans"]],
    lambda p: p["spans"].pop(),
    lambda p: p["config"].update(variant=NOISE_PREDICTOR),
], ids=["spans-shifted", "spans-dropped", "variant-not-kind"])
def test_load_rejects_spans_or_variant_that_disagree_with_schema_and_kind(tmp_path, edit):
    config = DiffusionConfig(variant=DENOISER, steps=2, batch_target=512, epochs=1, width=8,
                             blocks=1)
    payload = json.loads(json.dumps(bundle_dict(train_model(tiny_matrix(), config, 0))))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    load_bundle(path)  # the untouched bundle loads
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(BundleError, match="not match"):
        load_bundle(path)


@pytest.mark.parametrize("seed", [1.7, True, "3", -4])
def test_load_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    payload = bundle_dict(diffusion_model())
    model_from_dict(payload)  # the untouched payload loads
    with pytest.raises(BundleError, match="seed"):
        model_from_dict(dict(payload, seed=seed))


NUMERIC_OPTIONS = [(config_class, f.name) for config_class in (DiffusionConfig, GanConfig)
                   for f in dataclasses.fields(config_class)
                   if getattr(f.type, "__name__", f.type) in ("int", "float")]


@pytest.mark.parametrize("config_class, name", NUMERIC_OPTIONS,
                         ids=[f"{c.__name__}-{n}" for c, n in NUMERIC_OPTIONS])
def test_every_out_of_range_numeric_option_is_a_config_error_naming_it(config_class, name):
    bad = (-1,) if name == "blocks" else (0, -1)
    for value in bad:
        with pytest.raises(ConfigError, match=repr(name)):
            config_class(**{name: value})
    if name == "blocks":
        assert config_class(blocks=0).blocks == 0  # a head-only generator
