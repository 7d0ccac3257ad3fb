"""The benchmark's layer tracer still finds every name it wraps.

``benchmarks/sacbench/traced_server.py`` (what ``run.py --trace 1`` starts)
rebinds module attributes and class methods across the serving stack —
``plan_batch`` / ``execute_group`` as bound in the facade, sharding and
subscriptions, ``facade.select_rung``, the ``AnswerCache`` lookups and
stores, and more — before it hands over to ``repro.cli.main``.  A refactor
that removes or renames one of them breaks the traced benchmark run, so
tier 1 installs the tracer in a fresh interpreter and requires it to
succeed.
"""

import subprocess
import sys
from pathlib import Path

SACBENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "sacbench"

_INSTALL = """
import sys
sys.path.insert(0, {path!r})
import spans
import traced_server
traced_server.install(spans.Tracer())
"""


def test_traced_server_installs_on_the_current_program():
    completed = subprocess.run(
        [sys.executable, "-c", _INSTALL.format(path=str(SACBENCH))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
