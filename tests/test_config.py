"""The config registry's bounds: every numeric key declares one its default
meets, and a value just outside any of them stops the command line with
exit 2, naming the key, before a subcommand runs or ``--out`` is made."""
import pytest

import inpo.cli as cli_mod
from inpo.cli import main
from inpo.config import BOUNDS, REGISTRY, load_config, show, within

# values just outside each bound; a list key's case puts one after a good entry
OUTSIDE = {
    ">= 0": ["-1"],
    ">= 1": ["0"],
    ">= 2": ["1"],
    "even and >= 2": ["0", "7"],
    "> 0": ["0", "nan"],
    "> 0 and finite": ["0", "inf", "nan"],
    ">= 0 and finite": ["-0.5", "inf", "nan"],
    "finite": ["nan", "inf", "-inf"],
    "in [0, 1]": ["-0.1", "1.1", "nan"],
    "in (0, 1]": ["0", "1.1", "nan"],
}
CASES = [
    (key, bound, f"5,{value}" if bound.startswith("all ") else value)
    for key, (_, _, bound) in REGISTRY.items() if bound
    for value in OUTSIDE[bound.removeprefix("all ")]
]


def test_every_bound_has_values_outside_it():
    assert set(OUTSIDE) == set(BOUNDS)


@pytest.mark.parametrize("i, key, bound, value", [(i, *case) for i, case in enumerate(CASES)],
                         ids=[f"{key}={value}" for key, _, value in CASES])
def test_a_value_outside_its_bound_exits_before_any_work(tmp_path, capsys, monkeypatch, i, key,
                                                         bound, value):
    # every subcommand in turn, whether it reads the key or not
    for name in cli_mod.COMMANDS:
        monkeypatch.setitem(cli_mod.COMMANDS, name,
                            lambda *a, name=name: pytest.fail(f"{name} ran"))
    cmd = sorted(cli_mod.COMMANDS)[i % len(cli_mod.COMMANDS)]
    out = tmp_path / "out"
    assert main([cmd, "--out", str(out), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}=") and f" must be {bound}" in err, err
    assert not out.exists()


def test_every_numeric_key_declares_a_bound_its_default_meets():
    for key, (parser, default, bound) in REGISTRY.items():
        value = parser(show(default))
        assert value == default, key
        elements = value if isinstance(value, tuple) else (value,)
        # bool is an int subclass; a flag has no bound
        numeric = all(type(x) in (int, float) for x in elements)
        assert (bound is not None) == numeric, key
        if bound:
            assert bound.removeprefix("all ") in BOUNDS, key
            assert bound.startswith("all ") == isinstance(value, tuple), key
            assert within(bound, default), key


def test_a_value_is_checked_once_the_overrides_are_applied(tmp_path):
    # a file's value outside its bound is no error when an override replaces it
    cfile = tmp_path / "run.cfg"
    cfile.write_text("align.steps = -1\n")
    assert load_config(str(cfile), ["align.steps=3"])["align.steps"] == 3
