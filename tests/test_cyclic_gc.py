"""Each command runs with the cyclic garbage collector off.

`cli.main` turns the collector off while a command runs and puts the
caller's setting back afterwards. That is safe only while no command
leaves cyclic garbage, which reference counting cannot free: the first
tests check that property for every subcommand, each in a fresh
interpreter, and the rest check the collector's state around `main`.
"""

import gc
import json

import pytest

from cxrlabel import cli
from cxrlabel.cli import main
from test_lazy_layers import TEXT_RUNS
from test_lazy_numpy import (  # noqa: F401  (`inputs` is a fixture)
    GOLD,
    NUMERIC_RUNS,
    fresh,
    inputs,
)

# Runs the CLI once as a warm-up, since the first use of a lazy layer may
# leave import garbage, then again with the collector off, and prints the
# exit code and the unreachable objects a collection finds afterwards.
GARBAGE_PROBE = """
import contextlib, gc, io, json, sys
from cxrlabel.cli import main

argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    code = main(argv)
    n = gc.collect()
    gc.enable()
print(json.dumps([code, n]))
"""


@pytest.mark.parametrize("run", sorted({**NUMERIC_RUNS, **TEXT_RUNS}))
def test_no_subcommand_leaves_cyclic_garbage(run, inputs, tmp_path):
    argv = {**NUMERIC_RUNS, **TEXT_RUNS}[run](inputs)
    proc = fresh(["-c", GARBAGE_PROBE, json.dumps(argv)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    code, n = json.loads(proc.stdout.decode().splitlines()[-1])
    assert code == 0
    assert n == 0


@pytest.fixture
def collecting():
    """The collector on at the start of a test and after it."""
    gc.enable()
    yield
    gc.enable()


STATS = ["stats", "--labels", GOLD, "--out-counts", "counts.csv",
         "--out-matrix", "matrix.csv"]


def test_main_turns_the_collector_back_on_after_success(collecting, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(STATS) == 0
    assert gc.isenabled()


def test_main_turns_the_collector_back_on_after_a_missing_input(
        collecting, tmp_path):
    # An error exit can leave a bounded traceback cycle, so only the
    # collector's state is checked here.
    missing = str(tmp_path / "missing.tsv")
    assert main(["split", "--corpus", missing, "--out", str(tmp_path / "s.tsv")]) == 2
    assert gc.isenabled()


def test_main_turns_the_collector_back_on_when_a_command_raises(
        collecting, monkeypatch):
    def cmd_stats(args, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_stats", cmd_stats)
    with pytest.raises(RuntimeError, match="boom"):
        main(STATS)
    assert gc.isenabled()


def test_main_leaves_a_callers_disabled_collector_off(collecting, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    gc.disable()
    assert main(STATS) == 0
    assert not gc.isenabled()


def test_a_command_runs_with_the_collector_off(collecting, monkeypatch):
    seen = []

    def cmd_stats(args, config):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_stats", cmd_stats)
    assert main(STATS) == 0
    assert seen == [False]
    assert gc.isenabled()
