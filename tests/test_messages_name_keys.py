"""Every config error names the config key at fault.

Each mutation that ``test_dry_run_parity`` makes runs once with
``--dry-run``; the parity test shows that the run fails with the same
message. A message that exits 2 must contain the mutated dotted key or its
section: the key without its last part, or the key itself for a top-level key.
"""

import json
import os

import pytest
from test_dry_run_parity import COMMANDS, _cases

from softgrip.cli import EXIT_CONFIG, main
from softgrip.config import load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("command", COMMANDS)
def test_config_error_names_the_key_or_its_section(tmp_path, capsys, command):
    config, names = COMMANDS[command]
    base = load_config(os.path.join(CONFIG_DIR, config))
    path = tmp_path / "cfg.json"
    unnamed, errors = [], 0
    for key, value, changed in _cases(base):
        path.write_text(json.dumps(changed))
        code = main([command, "--config", str(path), *names, "--noise", "off", "--dry-run"])
        err = capsys.readouterr().err
        if code != EXIT_CONFIG:
            continue
        errors += 1
        section = key.rpartition(".")[0] or key
        if key not in err and section not in err:
            unnamed.append((key, value, err))
    assert errors > 50
    assert unnamed == []
