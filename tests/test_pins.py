"""The frozen-value table of `pins.py`, run in process, and proof that it
can fail: an altered expected value, or a variant run that differs, is
reported against its row."""

import dataclasses
import json

import pytest

from pins import BY_NAME, PINS, check, in_process


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    """The whole table run once in process, the variants in subprocesses:
    the problems found, and each command row's plain (exit code, stdout)."""
    plain = {}

    def recording(argv, env):
        result = in_process(argv, env)
        if not env:
            plain[argv] = result
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("pins"))
        return check(PINS, recording), plain


def test_every_row_holds(table_run):
    assert len(BY_NAME) == len(PINS)
    assert table_run[0] == []


def _altered(value):
    if isinstance(value, str):  # a digest: its last hex digit moved
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    if isinstance(value, tuple):  # fields: the one boolean flipped
        ((key, flag),) = value
        return ((key, not flag),)
    return value + 1


# one row of each kind
@pytest.mark.parametrize("name,attr", [
    ("riskprob-e8-type-1", "digest"),              # CLI record digest
    ("heuristic-degree-set-solve", "digest"),      # Python-call digest
    ("gen-t-family", "code"),                      # exit code only
    ("riskprob-e10-type-23", "fields"),            # record field
])
def test_an_altered_value_fails_its_row(table_run, tmp_path, monkeypatch, name, attr):
    # the copy replays the recorded plain runs; test_every_variant_is_run_and_judged
    # covers the variants
    monkeypatch.chdir(tmp_path)
    plain = table_run[1]
    table = [dataclasses.replace(p, hash_seeds=(), optimize=False) for p in PINS]
    i = next(i for i, p in enumerate(table) if p.name == name)
    table[i] = dataclasses.replace(table[i], **{attr: _altered(getattr(table[i], attr))})
    failures = check(table, lambda argv, env: plain[argv])
    assert [row for row, _ in failures] == [name], failures


def test_every_variant_is_run_and_judged(tmp_path, monkeypatch):
    # a stub command whose record moves under PYTHONHASHSEED=1 and under -O
    monkeypatch.chdir(tmp_path)
    pin = BY_NAME["decompose-rr-seed-1"]
    runs = []

    def stub(argv, env):
        runs.append(env)
        moved = env in ({"PYTHONHASHSEED": "1"}, {"PYTHONOPTIMIZE": "1"})
        digest = "sha256:moved" if moved else pin.digest
        return pin.code, json.dumps({"manifest": {"result_digest": digest}}) + "\n"

    failures = check([pin], stub)
    assert runs == [{}, {"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "1"},
                    {"PYTHONOPTIMIZE": "1"}]
    assert failures == [
        (pin.name, f"PYTHONHASHSEED=1 digest sha256:moved, expected {pin.digest}"),
        (pin.name, f"PYTHONOPTIMIZE=1 digest sha256:moved, expected {pin.digest}"),
    ]
