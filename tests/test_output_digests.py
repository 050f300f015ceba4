"""``tools/output_digests.py``: a smoke test on one workload and seed, and the
benchmark-output golden of every workload at seeds 1-3."""

import importlib.util
import json
import re
from pathlib import Path

from platform_eq import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIGESTS = ROOT / "tests" / "data" / "perfbench_digests.json"


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


def test_benchmark_outputs_match_golden():
    # every item of every benchmark workload at seeds 1-3, byte for byte.  A
    # deliberate output change rewrites the file with
    # `python3 tools/output_digests.py . > tests/data/perfbench_digests.json`
    # and lists the changed items in CHANGES.md
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    got = _tool().digests(str(ROOT))
    changed = sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))
    assert not changed, f"{len(changed)} of {len(golden)} items changed: {changed[:10]}"
