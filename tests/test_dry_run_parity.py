"""A dry run makes every check of its run.

Each leaf of ``config.DEFAULTS`` and each field of each bundled fixture is
mutated in turn, and every command runs the mutated config with and without
``--dry-run``, its names given to both. The dry run must exit 2 exactly when
the run does, with the same message. The cases are generated from the config
schema, so a new key is covered without editing this file.
"""

import contextlib
import copy
import json
import os
import signal

import pytest

from softgrip.cli import EXIT_CONFIG, EXIT_OK, main
from softgrip.config import _FIXTURE_FIELDS, DEFAULTS, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# each command with the bundled config and the flags that name what it needs
COMMANDS = {
    "calibrate": ("cubes.json", []),
    "probe": ("cubes.json", ["--fixture", "cube1"]),
    "scenario": ("banana.json", []),
    "sensitivity": ("cubes.json", []),
}

# a needed name cleared in the config: the dry run leaves it to the run
LEFT_TO_THE_RUN = [("scenario", "plan.fixture", "")]

RUN_SECONDS = 60  # per command; a case that runs longer fails the test


def _negative(x):
    """-|x| entry by entry, -1 for a zero."""
    return [_negative(v) for v in x] if isinstance(x, list) else -(abs(x) or 1)


def _mutations(value):
    """The values tried in place of a leaf whose current value is value."""
    if isinstance(value, str):
        tried = ["", "nope"]
    elif isinstance(value, list) and value:
        tried = [[], value[:1], [_negative(value[0]), *value[1:]], value[::-1]]
    elif isinstance(value, list):  # samples a uniform fixture leaves out: two pairs
        tried = [[[0, 10], [90, 200]]]
    else:  # a number, or null where a number may stand; the last three near the float limits
        tried = [0, -1, 1000, 1e160, 1e300, 1e-308]
    return [v for v in tried if v != value]


def _leaves(defaults, path=()):
    for key, default in defaults.items():
        if isinstance(default, dict) and default:
            yield from _leaves(default, path + (key,))
        elif key != "fixtures":  # fixtures are walked field by field
            yield path + (key,)


def _cases(base):
    """(dotted key, value, config) for each mutation of each settable leaf of base."""
    fields = (("fixtures", name, field) for name in base["fixtures"] for field in _FIXTURE_FIELDS)
    for key in [*_leaves(DEFAULTS), *fields]:
        *parents, last = key
        section = base
        for part in parents:
            section = section[part]
        for value in _mutations(section.get(last, _FIXTURE_FIELDS.get(last))):  # a field left out has its default
            changed = copy.deepcopy(base)
            target = changed
            for part in parents:
                target = target[part]
            target[last] = value
            yield ".".join(key), value, changed


@contextlib.contextmanager
def _time_limit(seconds, what):
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", COMMANDS)
def test_dry_run_exits_2_iff_the_run_does(tmp_path, capsys, command):
    config, names = COMMANDS[command]
    base = load_config(os.path.join(CONFIG_DIR, config))
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    mismatches, cases = [], 0
    for key, value, changed in _cases(base):
        path.write_text(json.dumps(changed))
        argv = [command, "--config", str(path), *names, "--noise", "off"]
        codes, errs = [], []
        for extra in (["--dry-run"], ["--out", str(out)]):
            with _time_limit(RUN_SECONDS, f"{command} {key}={value!r} {extra[0]}"):
                codes.append(main(argv + extra))
            errs.append(capsys.readouterr().err)
        cases += 1
        dry, run = codes
        if (command, key, value) in LEFT_TO_THE_RUN:
            assert (dry, run) == (EXIT_OK, EXIT_CONFIG), (key, value, errs)
        elif (dry == EXIT_CONFIG) != (run == EXIT_CONFIG) or (dry == EXIT_CONFIG and errs[0] != errs[1]):
            mismatches.append((key, value, dry, run, *errs))
    assert cases > 100
    assert mismatches == []
