"""The library calls the benchmark's tracer wraps are still made through it.

``bench/tracer.py`` spans the library's internal calls by replacing the
module attributes listed in ``NESTED_CALLS``, and skips an attribute that is
gone.  A refactor that stops calling through one of them would only leave
that call's per-layer metric empty, so this test runs a short pipeline under
the tracer and checks that every listed span is recorded.
"""

import sys
from pathlib import Path

import numpy as np

from neca import autodiff, cli
from neca.encoders import encode_onehot

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracer import NESTED_CALLS, Tracer  # noqa: E402


def test_every_nested_call_is_spanned(toy_cad):
    tr = Tracer()
    returned = []
    tr.on_return["training.forward_loss"] = lambda _, value: returned.append(value)
    with tr.nested_calls():
        with tr.traced_pass(0):
            cli.run_pipeline(toy_cad, cli.RunConfig(epochs=2, tol=0.0, heads=2, head_dim=2))
        with tr.traced_pass(1):
            encode_onehot(toy_cad)
    recorded = {name for _, name, *_ in tr.spans}
    assert {span for _, _, span in NESTED_CALLS} <= recorded
    # neca.encoders reaches build_node_set through its own module attribute
    assert "cavnet.build_node_set" in tr.durations(1)
    assert len(tr.durations(0)["training.forward_loss"]) == 2
    # the tape-size metric walks the loss Var that forward_loss returns first
    assert isinstance(returned[0][0], autodiff.Var)
    assert np.ndim(returned[0][0].value) == 0
