import math
import pathlib
import re

import pytest

from anharmonic.config import (
    ENSEMBLE_N_MAX,
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


@pytest.mark.parametrize("method", ["TW", "PositiveP"])
def test_ensemble_particle_number_bound(method):
    # accepted at the bound, refused one ulp above it; the oracle takes the
    # same file, as its own method or in place of the file's
    assert parse_config(f"method = {method}\nN = {ENSEMBLE_N_MAX!r}\n").n_particles == ENSEMBLE_N_MAX
    above = f"method = {method}\nN = {math.nextafter(ENSEMBLE_N_MAX, math.inf)!r}\n"
    with pytest.raises(InvalidValue) as err:
        parse_config(above)
    assert err.value.key == "N"
    assert parse_config(above, method="Oracle").n_particles > ENSEMBLE_N_MAX
    assert parse_config("method = Oracle\nN = 1e300\n").n_particles == 1e300


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


def test_dtau_longer_than_output_spacing_for_positive_p():
    # a 1e-10 gap is within the step rule's 1e-9 tolerance of zero steps,
    # which would leave the two outputs at one integrator state
    text = "method = PositiveP\nN = 10\ntau_start = 0\ntau_stop = 1e-10\ntau_points = 2\n"
    with pytest.raises(InvalidValue) as err:
        parse_config(text)
    assert err.value.key == "dtau"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# benchmark\n\nmethod = TW\nN = 1000\n")
    assert cfg.method == "TW"


def test_theta_modes():
    cfg = parse_config("method = TW\nN = 10\ntheta_mode = fixed\ntheta_value = 0.3\n")
    assert cfg.grid.thetas == (0.3,) * 21
    cfg = parse_config("method = TW\nN = 10\ntau_stop = 5\ntau_points = 3\n")
    assert cfg.grid.thetas == (0.0, 5.0, 10.0)


def test_tau_grid():
    cfg = parse_config("method = TW\nN = 10\ntau_start = 0\ntau_stop = 2\ntau_points = 5\n")
    assert cfg.grid.taus == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_grid_carries_the_step_only_for_positive_p():
    # dtau, the positive-P step, is the only run that reads it
    assert parse_config("method = PositiveP\nN = 10\ndtau = 5e-4\n").grid.dtau == 5e-4
    for method in ("TW", "Oracle"):
        assert parse_config(f"method = {method}\nN = 10\n").grid.dtau is None


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
        ("Oracle", "batches", "method=Oracle ignores batches"),
        ("Oracle", "dtau", "method=Oracle ignores dtau"),
        ("PositiveP", "theta_value", "theta_mode=rotating ignores theta_value"),
    ],
)
def test_ignored_key_warns(method, key, note):
    assert parse_config(f"method = {method}\nN = 10\n{key} = 1\n").warnings == (note,)


def test_keys_the_method_reads_draw_no_warning():
    text = ("method = PositiveP\nN = 10\nn_paths = 100\nbatches = 10\ndtau = 1e-2\n"
            "theta_mode = fixed\ntheta_value = 0.3\n")
    assert parse_config(text).warnings == ()


def test_readme_example_config_parses():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```\n((?:#[^\n]*\n)*method = [^`]*)```", readme)
    cfg = parse_config(block)
    assert (cfg.method, cfg.n_particles, cfg.tau_stop, cfg.tau_points, cfg.dtau) == (
        "PositiveP", 1000, 8, 17, 1e-3
    )
    assert cfg.warnings == ("theta_mode=rotating ignores theta_value",)


def test_unread_key_is_neither_parsed_nor_checked():
    for value in ("0", "nan", "fast"):
        cfg = parse_config(f"method = TW\nN = 10\ndtau = {value}\n")
        assert cfg.dtau == 1e-3
        assert cfg.warnings == ("method=TW ignores dtau",)


def test_method_argument_runs_in_place_of_the_files():
    # dtau = 3e-4 does not divide the default grid, which only PositiveP steps through
    cfg = parse_config("method = PositiveP\nN = 10\nn_paths = 5\ndtau = 3e-4\n", method="Oracle")
    assert cfg.method == "Oracle"
    assert cfg.warnings == ("method=Oracle ignores n_paths", "method=Oracle ignores dtau")
    with pytest.raises(InvalidValue) as err:
        parse_config("method = wigner\nN = 10\n", method="Oracle")
    assert err.value.key == "method"


def test_bad_theta_mode_named():
    with pytest.raises(InvalidValue) as err:
        parse_config("method = TW\nN = 10\ntheta_mode = spinning\n")
    assert err.value.key == "theta_mode"


@pytest.mark.parametrize(
    "text, key",
    [
        ("method = TW\nN = 1e-320\ntau_stop = 0.002\ntau_points = 3\n", "tau_stop"),
        ("method = Oracle\nN = 1e-320\ntau_stop = 0.002\ntau_points = 3\n", "tau_stop"),
        ("method = PositiveP\nN = 1e-320\ntau_stop = 0.002\ntau_points = 3\n", "tau_stop"),
        ("method = PositiveP\nN = 1e-320\ntau_stop = 0\ntau_points = 1\n", "dtau"),
    ],
    ids=["TW", "Oracle", "PositiveP", "PositiveP-step"],
)
def test_subnormal_particle_number_rejected(text, key):
    # t = tau / N (and positive-P's step dt = dtau / N) overflows at a
    # subnormal N; the error names N, not the dtau of the step rule
    with pytest.raises(InvalidValue, match=f"too small: {key} / N overflows") as info:
        parse_config(text)
    assert info.value.key == "N"


def test_tiny_particle_number_whose_times_stay_finite_accepted():
    # TW and the oracle never step, so only the output times must stay finite
    assert parse_config("method = TW\nN = 1e-320\ntau_stop = 0\ntau_points = 1\n").n_particles == 1e-320
    assert parse_config("method = PositiveP\nN = 1e-300\ntau_stop = 0.002\ntau_points = 3\n").grid.dt == 1e297


def test_negative_dtau_at_subnormal_particle_number_names_dtau():
    with pytest.raises(InvalidValue) as info:
        parse_config("method = PositiveP\nN = 1e-320\ntau_stop = 0\ntau_points = 1\ndtau = -1e-3\n")
    assert info.value.key == "dtau"
