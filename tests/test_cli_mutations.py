"""One-leaf mutations of the README sample configs end in exit 0, 1 or 2.

Each leaf of the seven sample configs is replaced in turn by a value of
another type or an extreme magnitude.  The run must return 0, 1 or 2
without raising.  Exit 1 and exit 2 print exactly one
`curlforce <command>: ...` line; exit 1 writes no manifest and exit 2 writes
one that carries `error`.  A sweep prints one `curlforce ...` line per
failed run, or a single line when it writes no manifest; no line is a
traceback.  The suite's warnings filter turns a numpy floating-point
warning raised inside curlforce into a failure here.
"""

import copy
import json
import math
import re
from pathlib import Path

import pytest

from curlforce import analysis
from curlforce.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"

# 10**400 is an integer no float can hold.  A grid size above 1e6 is
# refused before np.linspace allocates the grid, so 2**70 and 10**400 test
# that bound
_VALUES = [None, True, "x", [], {}, 0, -1, 1e308, -1e308, 1e-308, 2 ** 70,
           10 ** 400, math.nan]


def _sample_configs() -> dict:
    """command -> config, from the README's jsonc blocks."""
    configs = {}
    for block in re.findall(r"^```jsonc\n(.*?)^```", _README.read_text(),
                            re.MULTILINE | re.DOTALL):
        lines = block.splitlines()
        command = lines[0].removeprefix("// ").split(":")[0]
        configs[command] = json.loads(
            "\n".join(line for line in lines if not line.startswith("//")))
    assert sorted(configs) == ["figure", "map-ef", "noether", "orbit",
                               "simulate", "special", "sweep"]
    # shorter runs keep the suite fast.  The map-ef run takes 50 fixed steps,
    # and a mutated span or step needs at most 1,050 or more than 1e6, so the
    # 2,000-step limit only ends early the runs that the default 1e6 limit
    # ends too.
    configs["simulate"]["integrator"]["t_span"] = [0.0, 1.0]
    configs["map-ef"]["integrator"]["t_span"] = [0.0, 0.05]
    configs["map-ef"]["integrator"]["max_steps"] = 2000
    fig = configs["sweep"]["runs"][1]["config"]
    fig["I_values"] = [1.5]
    fig["theta_span"] = [0.0, 2.0]
    return configs


_CONFIGS = _sample_configs()


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


_CASES = [(command, path) for command, cfg in _CONFIGS.items()
          for path in _leaves(cfg)]


@pytest.mark.parametrize(
    "command, path", _CASES,
    ids=[f"{c}-{'.'.join(map(str, p))}" for c, p in _CASES])
def test_mutated_leaf_ends_cleanly(tmp_path, capsys, monkeypatch, command,
                                   path):
    # a mutated radius can make the quadrature exhaust its budget; each
    # completing mutation takes far fewer than these evaluations
    monkeypatch.setattr(analysis, "_QUAD_MAX_EVALS", 20_000)
    for i, value in enumerate(_VALUES):
        cfg = copy.deepcopy(_CONFIGS[command])
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg_path = tmp_path / f"config{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{i}"
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        where = f"{path} = {value!r}"
        assert code in (0, 1, 2), where
        manifest = out / "run_manifest.json"
        if command == "sweep":
            # one line per failed run, or one for a sweep that wrote nothing
            lines = err.splitlines()
            assert "Traceback" not in err, where
            assert all(line.startswith(("curlforce ", "curlforce: "))
                       for line in lines), where
            if manifest.exists():
                results = json.loads(manifest.read_text())["results"]
                assert len(lines) == sum(r["exit_code"] != 0
                                         for r in results), where
            else:
                assert code == 1 and len(lines) == 1, where
            continue
        if code == 0:
            assert err == "", where
            continue
        assert err.startswith(f"curlforce {command}: "), where
        assert err.count("\n") == 1 and err.endswith("\n"), where
        if code == 1:
            assert not manifest.exists(), where
        else:
            assert json.loads(manifest.read_text())["error"], where
