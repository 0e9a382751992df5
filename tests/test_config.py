from dataclasses import fields

import pytest

from kronsec import cli
from kronsec.config import MAX_PRECISION_BITS, Config, load_config, parse_config_text
from kronsec.errors import DomainError


def test_defaults():
    cfg = Config()
    assert cfg.n_cap == 14
    assert cfg.precision_bits == 96
    assert cfg.sweep_cap == 10
    assert cfg.seed == 0
    assert cfg.output == "-"


def test_precision_floor():
    assert Config(precision_bits=53).precision_bits == 53
    with pytest.raises(DomainError, match="53"):
        Config(precision_bits=52)


def test_precision_ceiling():
    assert Config(precision_bits=MAX_PRECISION_BITS).precision_bits == MAX_PRECISION_BITS == 4096
    with pytest.raises(DomainError, match="4096"):
        Config(precision_bits=4097)


def test_negative_caps_rejected():
    with pytest.raises(DomainError):
        Config(n_cap=-1)
    with pytest.raises(DomainError):
        Config(sweep_cap=-2)


def test_parse_config_text():
    text = "# limits\nn_cap = 12\nsweep_cap=8\n\nseed = 3\noutput = out.jsonl\n"
    assert parse_config_text(text) == {
        "n_cap": 12,
        "sweep_cap": 8,
        "seed": 3,
        "output": "out.jsonl",
    }


def test_parse_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(DomainError, match="unknown"):
        parse_config_text("colour = blue\n")
    with pytest.raises(DomainError, match="integer"):
        parse_config_text("n_cap = twelve\n")
    with pytest.raises(DomainError, match="key=value"):
        parse_config_text("just some words\n")


def test_load_config_from_file(tmp_path, monkeypatch):
    monkeypatch.delenv("KRONSEC_CONFIG", raising=False)
    path = tmp_path / "kronsec.cfg"
    path.write_text("sweep_cap = 6\n")
    cfg = load_config(str(path))
    assert cfg.sweep_cap == 6
    assert cfg.n_cap == 14  # untouched default


def test_env_var_wins_over_explicit_path(tmp_path, monkeypatch):
    a = tmp_path / "a.cfg"
    a.write_text("seed = 1\n")
    b = tmp_path / "b.cfg"
    b.write_text("seed = 2\n")
    monkeypatch.setenv("KRONSEC_CONFIG", str(b))
    assert load_config(str(a)).seed == 2


def test_missing_file_reported(tmp_path, monkeypatch):
    monkeypatch.delenv("KRONSEC_CONFIG", raising=False)
    with pytest.raises(DomainError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_file_values_still_validated(tmp_path, monkeypatch):
    monkeypatch.delenv("KRONSEC_CONFIG", raising=False)
    path = tmp_path / "bad.cfg"
    path.write_text("precision_bits = 10\n")
    with pytest.raises(DomainError):
        load_config(str(path))


@pytest.mark.parametrize("field", fields(Config), ids=lambda f: f.name)
def test_every_field_is_a_config_key_and_a_flag_and_the_flag_wins(field, tmp_path, monkeypatch):
    monkeypatch.delenv("KRONSEC_CONFIG", raising=False)
    if type(field.default) is int:
        from_file, from_flag = field.default + 1, field.default + 2
    elif type(field.default) is str:
        from_file, from_flag = "from-file.json", "from-flag.json"
    else:
        pytest.fail(f"no config key type for {field.name}")
    path = tmp_path / "kronsec.cfg"
    path.write_text(f"{field.name} = {from_file}\n")
    command = ["kron", "[1]", "[1]", "[1]"]
    parser = cli._build_parser()
    args = parser.parse_args(["--config", str(path), *command])
    assert getattr(cli._merge_config(args), field.name) == from_file
    flag = "--" + field.name.replace("_", "-")
    args = parser.parse_args(["--config", str(path), flag, str(from_flag), *command])
    assert getattr(cli._merge_config(args), field.name) == from_flag
