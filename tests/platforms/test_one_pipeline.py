"""One task pipeline: every runner's upload, reserved-pool execution and
radio charges run through :mod:`repro.platforms.pipeline`.

The stages were once written out in each runner (the upload block six
times, the IaaS-pool branch three times). These guards keep them in one
place: no other module under ``platforms/`` may call an RPC ``push``, a
pool's ``execute`` or a device's ``account_tx``/``account_rx``, and the
pipeline holds each exactly once. The scan reads the AST, so comments
and docstrings do not count; a synthetic tree shows it catches a copy.
"""

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = "pipeline.py"


def _named(node, suffix: str) -> bool:
    """True when ``node`` is a name or attribute ending in ``suffix``."""
    name = (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else "")
    return name.endswith(suffix)


def stage_calls(source: str):
    """``[(stage, line)]`` for each stage call in ``source``: an RPC
    ``push`` call, a ``*pool.execute`` call, and any use of a radio
    charge (called or not, so an alias cannot hide one)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            if node.func.attr == "push":
                found.append(("push", node.lineno))
            elif node.func.attr == "execute" and _named(node.func.value,
                                                        "pool"):
                found.append(("pool.execute", node.lineno))
        if ((isinstance(node, ast.Attribute) and
             node.attr in ("account_tx", "account_rx")) or
                (isinstance(node, ast.Name) and
                 node.id in ("account_tx", "account_rx"))):
            found.append((node.attr if isinstance(node, ast.Attribute)
                          else node.id, node.lineno))
    return sorted(found, key=lambda call: (call[1], call[0]))


def scan(package: pathlib.Path):
    """``(offenders, owned)``: stage calls outside the pipeline module as
    ``file:line stage``, and the pipeline's own stage names."""
    offenders, owned = [], []
    for path in sorted(package.glob("*.py")):
        calls = stage_calls(path.read_text())
        if path.name == OWNER:
            owned = sorted(stage for stage, _ in calls)
        else:
            offenders += [f"{path.name}:{line} {stage}"
                          for stage, line in calls]
    return offenders, owned


EACH_ONCE = ["account_rx", "account_tx", "pool.execute", "push"]


def test_stages_live_in_the_pipeline():
    offenders, owned = scan(SRC / "platforms")
    assert offenders == []
    assert owned == EACH_ONCE


def test_guard_catches_a_planted_copy(tmp_path):
    (tmp_path / OWNER).write_text(textwrap.dedent("""
        def upload(self, device):
            push = yield from self.edge_rpc.push(device.device_id, 1.0)
            device.account_tx(push.total_s)

        def execute(self, service_s):
            return (yield from self.pool.execute(service_s))

        def download(self, device, down_s):
            device.account_rx(down_s)
    """))
    (tmp_path / "runner.py").write_text(textwrap.dedent("""
        # edge_rpc.push(...) in a comment does not count
        def task(device, edge_rpc, stages, iaas_pool):
            push = yield from edge_rpc.push(device.device_id, 1.0)
            charge = device.account_tx
            charge(push.total_s)
            yield from iaas_pool.execute(0.1)
            yield from stages.execute(0.1)  # the pipeline's own stage
    """))
    offenders, owned = scan(tmp_path)
    assert owned == EACH_ONCE
    assert offenders == ["runner.py:4 push", "runner.py:5 account_tx",
                         "runner.py:7 pool.execute"]
