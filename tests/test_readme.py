"""README's examples run as written: each ``qsearch`` command line, the
library snippet, and the plotting snippet on the ``bound`` example's CSV
(with ``matplotlib.pyplot`` stubbed, since matplotlib is no dependency)."""

import pathlib
import re
import shlex
import sys
import types
from unittest import mock

import pytest

from qsearch.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in code_blocks("sh") for line in block.splitlines() if line.startswith("qsearch ")]


def test_readme_has_one_command_per_subcommand():
    assert [argv[0] for argv in COMMANDS] == ["analog", "grover", "bound", "stats"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_line_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0


def test_library_snippet_runs():
    library = [block for block in code_blocks("python") if "run_grover" in block]
    assert len(library) == 1
    exec(library[0], {})


def test_plotting_snippet_plots_the_bound_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (bound,) = [argv for argv in COMMANDS if argv[0] == "bound"]
    assert main(bound) == 0
    plt = mock.MagicMock()
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = plt
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
    plotting = [block for block in code_blocks("python") if "matplotlib" in block]
    assert len(plotting) == 1
    exec(plotting[0], {})
    (t, d, *_), (t_cap, cap, *_) = (c.args for c in plt.plot.call_args_list)
    assert len(t) == len(d) == len(cap) > 1 and t[0] == 0.0
    assert (t == t_cap).all() and (d <= cap + 1e-6).all()
    plt.show.assert_called_once()
