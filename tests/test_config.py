import pytest

from anharmonic.config import (
    InvalidValue,
    MissingKey,
    UnknownKey,
    parse_config,
)


def test_minimal_config_gets_defaults():
    cfg = parse_config("method = TW\nN = 1000\n")
    assert cfg.n_paths == 100_000
    assert cfg.batches == 100
    assert cfg.seed == 0
    assert cfg.theta_mode == "rotating"
    assert cfg.dtau == 1e-3
    assert cfg.divergence_threshold == 1e-3


def test_seed_comes_from_flag_not_file():
    cfg = parse_config("method = TW\nN = 10\n", seed=77)
    assert cfg.seed == 77


def test_paths_fewer_than_batches_rejected():
    with pytest.raises(InvalidValue) as err:
        parse_config("method = TW\nN = 10\nn_paths = 50\nbatches = 100\n")
    assert err.value.key == "n_paths"


def test_oracle_ignores_n_paths_with_warning():
    cfg = parse_config("method = Oracle\nN = 10\nn_paths = 50\n")
    assert any("n_paths" in w for w in cfg.warnings)


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey) as err:
        parse_config("method = TW\nN = 10\nbogus = 1\n")
    assert err.value.key == "bogus"


def test_duplicate_key_rejected_with_both_lines():
    with pytest.raises(InvalidValue) as err:
        parse_config("method = TW\nN = 10\n# larger\nN = 1e3\n")
    assert err.value.key == "N"
    assert "line 2" in str(err.value) and "line 4" in str(err.value)


def test_missing_method_rejected():
    with pytest.raises(MissingKey):
        parse_config("N = 10\n")


def test_missing_n_rejected():
    with pytest.raises(MissingKey):
        parse_config("method = TW\n")


def test_tau_ceiling():
    with pytest.raises(InvalidValue) as err:
        parse_config("method = TW\nN = 10\ntau_stop = 30\n")
    assert err.value.key == "tau_stop"


def test_bad_method_named():
    with pytest.raises(InvalidValue) as err:
        parse_config("method = wigner\nN = 10\n")
    assert err.value.key == "method"


def test_dtau_must_divide_grid_for_positive_p():
    text = "method = PositiveP\nN = 10\ntau_start = 0\ntau_stop = 1\ntau_points = 3\ndtau = 3e-4\n"
    with pytest.raises(InvalidValue) as err:
        parse_config(text)
    assert err.value.key == "dtau"


def test_dtau_must_divide_tau_start_for_positive_p():
    for points in (1, 3):
        text = (
            "method = PositiveP\nN = 10\ntau_start = 0.0005\ntau_stop = 0.0105\n"
            f"tau_points = {points}\ndtau = 1e-3\n"
        )
        with pytest.raises(InvalidValue) as err:
            parse_config(text)
        assert err.value.key == "dtau"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# benchmark\n\nmethod = TW\nN = 1000\n")
    assert cfg.method == "TW"


def test_theta_modes():
    cfg = parse_config("method = TW\nN = 10\ntheta_mode = fixed\ntheta_value = 0.3\n")
    assert cfg.theta_for(5.0) == 0.3
    cfg = parse_config("method = TW\nN = 10\n")
    assert cfg.theta_for(5.0) == 10.0


def test_tau_grid():
    cfg = parse_config("method = TW\nN = 10\ntau_start = 0\ntau_stop = 2\ntau_points = 5\n")
    assert cfg.taus == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_integer_keys_take_whole_numbers_in_float_notation():
    cfg = parse_config("method = TW\nN = 10\nn_paths = 1e5\ntau_points = 3.0\n")
    assert (cfg.n_paths, cfg.tau_points) == (100_000, 3)
    with pytest.raises(InvalidValue) as err:
        parse_config("method = TW\nN = 10\nbatches = 12.5\n")
    assert err.value.key == "batches"



@pytest.mark.parametrize(
    "method, key, note",
    [
        ("TW", "dtau", "method=TW ignores dtau"),
        ("TW", "divergence_threshold", "method=TW ignores divergence_threshold"),
        ("Oracle", "batches", "method=Oracle ignores batches"),
        ("Oracle", "dtau", "method=Oracle ignores dtau"),
        ("Oracle", "divergence_threshold", "method=Oracle ignores divergence_threshold"),
        ("PositiveP", "theta_value", "theta_mode=rotating ignores theta_value"),
    ],
)
def test_ignored_key_warns(method, key, note):
    assert parse_config(f"method = {method}\nN = 10\n{key} = 1\n").warnings == (note,)


def test_keys_the_method_reads_draw_no_warning():
    text = ("method = PositiveP\nN = 10\nn_paths = 100\nbatches = 10\ndtau = 1e-2\n"
            "divergence_threshold = 0.5\ntheta_mode = fixed\ntheta_value = 0.3\n")
    assert parse_config(text).warnings == ()
