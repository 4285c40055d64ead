"""The traced benchmark sees every layer: perfbench/spans.py wraps each
layer's public functions at the module attributes their callers look them
up by, so a call that bypasses one (say verify_ledger calling
sigma.first_failure in place of protocol.verify_contribution) would read
zero for that layer's per-layer metrics without failing any count pin."""

import importlib.util
from pathlib import Path

import pytest

from zorro import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("check", ["l1", "l2"])
def test_aggregate_and_verify_reach_every_traced_layer(check, tmp_path, capsys):
    ledger = str(tmp_path / "session.zl")
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main([
            "aggregate", "--parties", "2", "--dim", "1", "--check", check, "--bound", "3",
            "--ledger", ledger,
        ]) == 0
        assert cli.main(["verify", ledger]) == 0
    names = {span[1] for span in tracer.spans}
    expected = {
        "protocol.verify_contribution", "protocol.derive_pads",
        f"rangeproof.prove_{check}", f"rangeproof.verify_{check}",
        "sigma.verify_dlog", "sigma.verify_bit", "dlog.bsgs",
    } | ({"sigma.verify_square"} if check == "l2" else set())
    assert expected <= names, sorted(expected - names)
    # the originals are back once the tracer is removed
    assert cli.cmd_verify.__name__ == "cmd_verify" and not hasattr(cli.cmd_verify, "__wrapped__")
