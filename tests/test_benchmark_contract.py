"""The benchmark's tracing contract with the program.

`perfbench/run.py --trace 1` wraps named functions and methods of every
roletune layer (`perfbench/tracing.py`) and reads their arguments and results
in after-hooks. A renamed function, or an argument or result whose type
changed, fails there before any operation runs. These tests run each gated
workload's set-up under the full set of patches, so such a break shows here.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from tracing import Patch, Tracer, install  # noqa: E402
import workloads  # noqa: E402

# counters that only an after-hook of the workload's set-up path increments
HOOKED = {
    "train-midi": ("training.valid_tokens", "tensor.tape_entries"),
    "train-concat": ("training.valid_tokens", "tensor.tape_entries"),
    "eval-decode": ("memory.append_calls", "generate.tokens_forwarded", "training.valid_tokens"),
    "chat-long": ("memory.append_calls", "generate.tokens_forwarded", "training.valid_tokens"),
}


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_traced_setup_fires_every_hook(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer = Tracer()
    with Patch() as patch:
        install(patch, tracer)
        state = workload.setup(0, tmp_path)
        if workload.kind == "decode":
            assert workload.agent_loss(state, []) > 0
    for counter in HOOKED[name]:
        assert tracer.counters[counter] > 0, counter
    assert tracer.counters["model.forward_segment_calls"] > 0


@pytest.mark.parametrize("name", ["chat-long", "eval-decode"])
def test_mask_shapes_read_the_stored_slot_count(name, tmp_path):
    # set-up primes one memory from empty and decodes one reply over it:
    # one chain, so the widest mask a forward_segment call is counted with
    # spans every slot forwarded (T = stored + seg). A cache that showed the
    # tracer more than the stored slots would widen it.
    workload = workloads.WORKLOADS[name]
    tracer = Tracer()
    with Patch() as patch:
        install(patch, tracer)
        workload.setup(0, tmp_path)
        shapes = dict(tracer.shapes["model.mask_bytes"])
        forwarded = tracer.counters["generate.tokens_forwarded"]
    assert forwarded > 0
    assert max(total for _, _, _, total in shapes) == forwarded
