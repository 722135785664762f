import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import (
    ConfigError,
    RunConfig,
    SolverParams,
    generate_ic,
    parse_config,
    phi_norm,
    serialize_config,
)
from nstorus.cli import OUTPUT_DIR_ENV, main
from nstorus.config import config_from_mapping


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.epsilon == 0.25
    assert cfg.beta == 3.5
    assert cfg.k_max == 4
    assert cfg.delta == 1e-3
    assert cfg.substeps == 8
    assert cfg.rng_seed == 0
    # a RunConfig is the solver's parameters, with SolverParams' defaults
    assert isinstance(RunConfig(), SolverParams)
    assert list(RunConfig.DEFAULTS)[:len(SolverParams.DEFAULTS)] == list(SolverParams.DEFAULTS)
    for name in SolverParams.DEFAULTS:
        assert getattr(RunConfig(), name) == getattr(SolverParams(), name)


def test_replace_revalidates_and_equal_configs_hash_equal():
    cfg = RunConfig(delta=0.01, emit={"fields"})
    changed = cfg.replace(delta=0.02)
    assert changed == RunConfig(delta=0.02, emit=frozenset({"fields"})) and cfg.delta == 0.01
    assert cfg.replace(delta=0.01) == cfg and hash(cfg.replace(delta=0.01)) == hash(cfg)
    assert len({RunConfig(), RunConfig(), cfg, changed}) == 3
    for bad, match in (({"delta": -1.0}, "delta must be positive"),
                       ({"ic_kind": "nope"}, "ic_kind must be one of"),
                       ({"emit": {"nope"}}, "unknown emit kinds"),
                       ({"k_max": 0}, "k_max must be a positive integer")):
        with pytest.raises(ConfigError, match=match):
            cfg.replace(**bad)
    with pytest.raises(ValueError, match="beta must be > 3"):
        SolverParams().replace(beta=3.0)
    # a config is never equal to the bare parameters it extends
    assert RunConfig() != SolverParams() and SolverParams().replace() == SolverParams()


def test_epsilon_constraint_reported():
    with pytest.raises(ConfigError, match=r"3\*epsilon"):
        parse_config("epsilon = 0.4")


def test_lattice_too_large_for_the_gather_table_reported():
    with pytest.raises(ConfigError, match="k_max 20 has more than 65535 sites"):
        RunConfig(k_max=20, truncation_rule="sup_cube")


def test_beta_constraint_reported():
    with pytest.raises(ConfigError, match="beta must be > 3"):
        parse_config("beta = 2.5")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config("viscosity = 2.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("delta = 1e-3\ndelta = 1e-4")


def test_comments_and_blanks_ignored():
    cfg = parse_config("""
# full line comment
delta = 1e-4   # trailing comment

k_max = 2
""")
    assert cfg.delta == 1e-4
    assert cfg.k_max == 2


def test_bad_value_reported():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("k_max = small")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("reality_symmetry = maybe")


def test_emit_parsing_and_validation():
    cfg = parse_config("emit = fields, norm_series")
    assert cfg.emit == frozenset({"fields", "norm_series"})
    with pytest.raises(ConfigError, match="emit"):
        parse_config("emit = plots")


def test_round_trip_identity():
    texts = [
        "",
        "delta = 2.5e-4\nk_max = 3\ntruncation_rule = sup_cube",
        "ic_kind = single_mode\nrng_seed = 123456789",
        "reality_symmetry = true",
        "emit = certificates,fields,norm_series\noracle_horizon = 2",
    ]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.33), st.floats(3.01, 6.0), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(epsilon, beta, k_max, seed):
    cfg = config_from_mapping({
        "epsilon": epsilon, "beta": beta, "k_max": k_max, "rng_seed": seed,
    })
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_numpy_scalars():
    cfg = RunConfig(delta=np.float64(1e-3), epsilon=np.float64(0.2), k_max=np.int64(3),
                    fp_max_iter=np.int64(40), rng_seed=np.uint64(7))
    text = serialize_config(cfg)
    assert "np." not in text
    assert parse_config(text) == cfg


@pytest.mark.parametrize("key, value", [
    ("output_dir", "runs/#3"),     # '#' starts a comment in run_config.cfg
    ("output_dir", " out"),        # surrounding whitespace is stripped on reading
    ("output_dir", "out\t"),
    ("output_dir", "runs/a\nb"),   # a line break splits the line
    ("ic_checkpoint", "ic\r.ckpt"),
    ("truncation_rule", "sup_cube #"),
    ("output_dir", "x\udcff"),    # how Python decodes argv byte 0xff; UTF-8 cannot write it
])
def test_text_values_that_cannot_round_trip_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: value})


def test_round_trip_paths():
    for path in ("runs/3", "a b/c.d", "/tmp/x-y_z", "~/out", "out=1", "runs/é"):
        cfg = RunConfig(output_dir=path, ic_kind="from_checkpoint", ic_checkpoint=path)
        assert parse_config(serialize_config(cfg)) == cfg


def test_cli_rejects_unreadable_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    # `--output-dir $'x\xff'` reaches argv as a lone surrogate
    for name in ("a#b", "x\udcff"):
        target = tmp_path / name
        assert main(["run", "--k-max", "2", "--horizon-m", "1", "--output-dir", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output_dir must be UTF-8 text") and err.count("\n") == 1
        assert not target.exists()


def test_from_checkpoint_requires_path():
    with pytest.raises(ConfigError, match="ic_checkpoint"):
        parse_config("ic_kind = from_checkpoint")


def test_horizon_must_be_positive():
    with pytest.raises(ConfigError, match="horizon_m"):
        parse_config("horizon_m = 0")


@pytest.mark.parametrize("key", ["beta", "delta", "decay_c", "fp_tol", "eps_div", "oracle_tol"])
def test_non_finite_parameters_rejected(key):
    with pytest.raises(ConfigError, match=f"{key} must be .* finite, got inf"):
        parse_config(f"{key} = inf")


@pytest.mark.parametrize("ic_kind", ["single_mode", "two_mode", "from_checkpoint"])
def test_reality_symmetry_needs_random_data(ic_kind, tmp_path, capsys):
    # only random_phi_ball draws symmetric data; the other kinds would
    # ignore the flag
    with pytest.raises(ConfigError, match="reality_symmetry"):
        parse_config(f"ic_kind = {ic_kind}\nic_checkpoint = v.ckpt\nreality_symmetry = true")
    out = tmp_path / "out"
    assert main(["run", "--ic-kind", ic_kind, "--ic-checkpoint", "v.ckpt",
                 "--reality-symmetry", "true", "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: reality_symmetry")
    assert not out.exists()


# -- initial conditions -----------------------------------------------------------

def test_single_mode_ic():
    cfg = RunConfig(ic_kind="single_mode", k_max=2)
    v0 = generate_ic(cfg)
    assert v0.support_size == 1
    assert np.allclose(v0[(1, 0, 0)], (0.0, cfg.delta, 0.0))
    assert phi_norm(v0, cfg.alpha) == cfg.delta


def test_two_mode_ic_interacts():
    cfg = RunConfig(ic_kind="two_mode", k_max=2)
    v0 = generate_ic(cfg)
    assert v0.support_size == 2
    assert phi_norm(v0, cfg.alpha) == cfg.delta
    assert v0.max_divergence_ratio() == 0.0
    from nstorus import bilinear

    assert bilinear(v0, v0).support_size > 0  # the nonlinearity is exercised


def test_random_ball_norm_bound_many_seeds():
    alpha = RunConfig().alpha
    for seed in range(25):
        cfg = RunConfig(k_max=2, rng_seed=seed)
        v0 = generate_ic(cfg)
        assert phi_norm(v0, alpha) <= cfg.delta
        assert v0.max_divergence_ratio() <= cfg.eps_div
        assert v0.support_size == 32


def test_random_ball_deterministic():
    a = generate_ic(RunConfig(k_max=2, rng_seed=42))
    b = generate_ic(RunConfig(k_max=2, rng_seed=42))
    assert np.array_equal(a.data, b.data)
    c = generate_ic(RunConfig(k_max=2, rng_seed=43))
    assert not np.array_equal(a.data, c.data)


def test_random_ball_reality_symmetry():
    cfg = RunConfig(k_max=2, reality_symmetry=True, rng_seed=5)
    v0 = generate_ic(cfg)
    assert v0.reality_defect() == 0.0
    assert phi_norm(v0, cfg.alpha) <= cfg.delta


def test_random_ball_at_a_delta_whose_squares_overflow():
    cfg = RunConfig(k_max=2, delta=1e155)
    v0 = generate_ic(cfg)
    assert v0.support_size == 32
    assert 0 < phi_norm(v0, cfg.alpha) <= cfg.delta


def test_from_checkpoint_ic(tmp_path):
    from nstorus import save_field

    cfg = RunConfig(k_max=2, rng_seed=9)
    v0 = generate_ic(cfg)
    path = tmp_path / "ic.ckpt"
    save_field(v0, path)
    cfg2 = RunConfig(k_max=2, ic_kind="from_checkpoint", ic_checkpoint=str(path))
    v1 = generate_ic(cfg2)
    assert np.array_equal(v0.data, v1.data)
