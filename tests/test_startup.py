"""Start-up hygiene: the batch commands and the daemon never load numpy.

numpy is what the §7 analyses compute with; importing it costs more
than the rest of ``repro.cli`` together, so only the analyses that use
it import it, inside the functions that need it.  Each check runs in a
fresh interpreter, since this test process has numpy loaded already.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.http.binlog import write_binlog
from repro.http.log import write_log

_SRC = os.path.dirname(os.path.dirname(repro.__file__))
_ECO = ["--publishers", "40", "--eco-seed", "99"]


def _loads_numpy(snippet: str, cwd) -> bool:
    probe = snippet + "\nimport sys\nprint('numpy' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1] == "True"


@pytest.fixture()
def empty_inputs(tmp_path):
    with open(tmp_path / "empty.tsv", "w") as stream:
        write_log([], stream)
    with open(tmp_path / "empty.bin", "wb") as stream:
        write_binlog([], stream)
    (tmp_path / "empty.tls").write_text("#ts\tclient\tserver\tserver_port\n")
    return tmp_path


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.app"])
def test_import_does_not_load_numpy(module, tmp_path):
    assert not _loads_numpy(f"import {module}", tmp_path)


@pytest.mark.parametrize("argv", [
    ["usage", *_ECO, "--trace", "empty.tsv", "--tls", "empty.tls"],
    ["classify", *_ECO, "--trace", "empty.bin", "--out", "out.tsv", "--workers", "2"],
], ids=["usage", "classify-pool"])
def test_batch_command_does_not_load_numpy(argv, empty_inputs):
    snippet = f"from repro.cli import main\nassert main({argv!r}) == 0"
    assert not _loads_numpy(snippet, empty_inputs)


def test_probe_sees_numpy_when_an_analysis_needs_it(tmp_path):
    """The probe itself works: rendering a box-plot row does load numpy."""
    snippet = "from repro.analysis.report import render_boxplot_row\nrender_boxplot_row('x', [1.0])"
    assert _loads_numpy(snippet, tmp_path)
