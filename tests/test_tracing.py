"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps package functions by name; a renamed or
removed one does not fail a traced run, it turns that layer's metrics into
null.  This test installs the tracer as the benchmark does, runs a short
sweep on a coupled and on a zero-cross market (the two sweep paths), one
verify, one classify and all figures, and checks that nothing was missed and
that every metric is a finite number.  classify is the one command that goes
through the one-cell classifiers' span.
"""

import importlib.util
import json
import math
from pathlib import Path

from platform_eq.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

MARKET = """\
[market]
n_platforms = 3
beta_b = 1.0
beta_s = 0.9
phi_bb = 0.2
phi_bs = 0.03
phi_sb = -0.02
phi_ss = 0.1
"""


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_report_every_layer(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    sweep = "\n[sweep]\naxis = u0\nstart = 0\nstop = 1\nstep = 1\n"
    ini.write_text(MARKET + sweep + "\n[verify]\ngrid_n = 11\n\n[grid]\nresolution = 4\n")
    zero_cross = tmp_path / "zero_cross.ini"
    zero_cross.write_text(MARKET.replace("0.03", "0.0").replace("-0.02", "0.0") + sweep)
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        codes = [main(["sweep", "--config", str(ini)]),
                 main(["sweep", "--config", str(zero_cross)]),
                 main(["verify", "--config", str(ini)]),
                 main(["classify", "--config", str(ini)]),
                 main(["figures", "--config", str(ini), "--out", str(tmp_path / "figs")])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0, 0]
    assert tracer.missing == []
    assert tracer.warnings == []
    metrics = tracer.take()
    assert [name for name, value in metrics.items()
            if not (isinstance(value, (int, float)) and math.isfinite(value))] == []
    json.dumps(metrics, allow_nan=False)
    assert metrics["model.solve_cubic_real.calls"] > 0
    assert metrics["config.load_config.self_s"] > 0
    assert metrics["regions.classify.calls"] > 0
    assert capsys.readouterr().out.count("sign agreement") == 8
