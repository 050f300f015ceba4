"""Smoke test of ``tools/output_digests.py`` on one workload and seed."""

import importlib.util
import re
from pathlib import Path

from platform_eq import cli

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_coupled_seed1_digests(monkeypatch):
    tool = _tool()
    first = tool.digests(str(ROOT), workloads=("sweep-coupled",), seeds=(1,))
    assert sorted(first) == [f"sweep-coupled/1/sweep{i}" for i in range(4)]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in first.values())
    assert len(set(first.values())) == 4
    # the same checkout gives the same digests; a changed output line does not
    assert tool.digests(str(ROOT), workloads=("sweep-coupled",), seeds=(1,)) == first
    comments = cli._comments
    monkeypatch.setattr(cli, "_comments", lambda cfg, command: comments(cfg, command) + ["x"])
    changed = tool.digests(str(ROOT), workloads=("sweep-coupled",), seeds=(1,))
    assert all(changed[k] != first[k] for k in first)
