"""Spans around the public calls into each roletune layer.

Everything here works from outside the program: a `Patch` swaps a module
attribute or class attribute for a wrapper and puts the original back on
exit, and a `Tracer` records one span per wrapped call. Nothing under
`src/` knows it is being traced.

A span is (index, name id, start, end, parent index, request id). Spans are
kept in memory and written out once, when the run ends. A request is one
operation of the workload (a training step or a reply); the workload
advances `Tracer.request` at each operation boundary, so the spans that lead
up to an operation share its id. Set-up spans carry request -1.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from stats import self_times

# The tape ops whose forward and backward time the benchmark reports.
TENSOR_OPS = ("matmul", "softmax", "add", "mul", "concat", "reshape", "swapaxes",
              "rms_norm", "rope_rotate", "embedding", "cross_entropy", "silu")
# Traced too, so that no tape entry goes unattributed; not reported.
OTHER_TENSOR_OPS = ("sub", "neg", "tensor_sum", "tensor_mean")


SPAN_DTYPE = [("index", "i4"), ("name", "i4"), ("start", "f8"), ("end", "f8"),
              ("parent", "i4"), ("request", "i4")]


class Patch:
    """Replace functions by wrappers for the duration of a `with` block.

    `function(module, name, wrap)` replaces the function in every loaded
    roletune module that binds it (modules import each other's functions by
    name); `method(cls, name, wrap)` replaces a class attribute.
    """

    def __init__(self):
        self._undo = []

    def function(self, module, name, wrap):
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "roletune" and getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapped)

    def method(self, cls, name, wrap):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        return False


class Tracer:
    """In-memory span recorder plus the counters computed at span boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._stack: list[tuple[int, int]] = [(-1, -1)]
        self._next = 0
        self.request = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.shapes: dict[str, Counter] = defaultdict(Counter)
        self.weight_labels: dict[int, str] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current_name(self) -> str | None:
        nid = self._stack[-1][1]
        return self.names[nid] if nid >= 0 else None

    def wrap(self, name, fn, name_of=None, after=None):
        """Wrapper recording one span per call. name_of(args) picks the span
        name per call; after(args, kwargs, result) updates counters."""
        fixed = self.name_id(name)
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            nid = fixed if name_of is None else self.name_id(name_of(args))
            parent = stack[-1][0]
            stack.append((idx, nid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((idx, nid, start, end, parent, self.request))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, value: float, shape=None):
        self.counters[name] += value
        if shape is not None:
            self.shapes[name][shape] += 1

    def label_model(self, model):
        """Name each frozen weight by its role, so that projections and
        linear layers can be told apart by weight identity."""
        labels = {"wq": "q", "wk": "k", "wv": "v", "wo": "o",
                  "w1": "ffn_in", "w2": "ffn_out"}
        self.weight_labels = {id(model.base.params["embed"]): "lm_head"}
        for name, tensor in model.base.params.items():
            suffix = name.split(".")[-1]
            if suffix in labels:
                self.weight_labels[id(tensor)] = labels[suffix]

    def compact(self):
        """Move the recorded spans into a packed array (32 bytes a span
        instead of about 200 as a tuple)."""
        if self.spans:
            self._chunks.append(np.array(self.spans, dtype=SPAN_DTYPE))
            del self.spans[:]

    def span_count(self) -> int:
        return len(self.spans) + sum(len(c) for c in self._chunks)

    def span_array(self) -> np.ndarray:
        self.compact()
        arr = np.concatenate(self._chunks) if self._chunks else np.zeros(0, SPAN_DTYPE)
        return np.sort(arr, order="index")

    def write(self, path):
        """Spans as a .npz of columns plus the name table."""
        arr = self.span_array()
        np.savez(path, names=np.array(json.dumps(self.names)),
                 **{field: arr[field] for field in arr.dtype.names})


def install(patch: Patch, tracer: Tracer):
    """Wrap the public calls of every timed roletune layer."""
    import roletune.checkpoint as ckpt
    import roletune.data as data
    import roletune.evaluate as evaluate
    import roletune.generate as generate
    import roletune.memory as memory
    import roletune.metrics as metrics
    import roletune.model as model
    import roletune.tensor as tensor
    import roletune.training as training

    w = tracer.wrap
    count = tracer.count

    # tensor: each op, and each backward closure as the tape records it
    for op in TENSOR_OPS + OTHER_TENSOR_OPS:
        patch.function(tensor, op, lambda f, op=op: w(f"tensor.{op}", f))

    def wrap_record(record):
        def traced_record(tape, inputs, output, backward_fn):
            op = (tracer.current_name() or "tensor.unknown").removeprefix("tensor.")
            return record(tape, inputs, output, w(f"tensor.bwd.{op}", backward_fn))
        return traced_record

    patch.method(tensor.Tape, "_record", wrap_record)
    patch.method(tensor.Tape, "backward", lambda f: w(
        "tensor.backward", f,
        after=lambda a, k, r: count("tensor.tape_entries", len(a[0].entries))))

    # model
    def forward_counts(args, kwargs, result):
        config = args[0].config
        batch, seg = np.shape(args[1])
        cache = kwargs.get("cache", args[5] if len(args) > 5 else None)
        total = (cache[0][0].shape[2] if cache else 0) + seg
        count("model.forward_segment_calls", 1)
        # the float32 mask forward_segment materialises once per head
        count("model.mask_bytes", batch * config.n_heads * seg * total * 4,
              (batch, config.n_heads, seg, total))

    def weight_label(args):
        return tracer.weight_labels.get(id(args[1]), "other")

    patch.method(model.Transformer, "forward_segment",
                 lambda f: w("model.forward_segment", f, after=forward_counts))
    patch.function(model, "lora_linear", lambda f: w(
        "model.lora_linear", f, name_of=lambda a: "model.lora_linear." + weight_label(a)))
    patch.function(model, "linear", lambda f: w(
        "model.linear", f, name_of=lambda a: "model.linear." + weight_label(a)))

    # memory
    def append_counts(args, kwargs, result):
        k = result.layers[0][0]
        b, h, t, dh = k.shape
        # every append materialises the whole K and V store of every layer anew
        count("memory.append_calls", 1)
        count("memory.append_bytes", 2 * result.n_layers * b * h * t * dh * k.itemsize,
              (2 * result.n_layers, b, h, t, dh, k.itemsize))
        count("memory.valid_slots", int(result.counts.sum()))
        count("memory.stored_slots", b * t)

    patch.method(memory.RoundMemory, "append", lambda f: w("memory.append", f, after=append_counts))
    patch.method(memory.RoundMemory, "build_mask", lambda f: w("memory.build_mask", f))
    patch.method(memory.RoundMemory, "next_positions", lambda f: w("memory.next_positions", f))

    # training
    def grid_counts(validities):
        count("training.valid_tokens", sum(int(v.sum()) for v in validities))
        count("training.grid_tokens", sum(v.size for v in validities),
              tuple(v.shape for v in validities))

    def midi_counts(args, kwargs, result):
        batch = args[2]
        grid_counts([batch.instruction.validity]
                    + [r[role].validity for r in batch.rounds for role in ("user", "agent")])

    patch.function(training, "train", lambda f: w("training.train", f))
    patch.function(training, "midi_losses", lambda f: w("training.midi_losses", f, after=midi_counts))
    patch.function(training, "causal_loss", lambda f: w(
        "training.causal_loss", f, after=lambda a, k, r: grid_counts([a[2].validity])))
    patch.method(training.AdamW, "step", lambda f: w("training.optimizer_step", f))

    # data
    patch.function(data, "synth_generate", lambda f: w("data.synth_generate", f))
    patch.function(data, "build_round_batches", lambda f: w("data.build_round_batches", f))
    patch.function(training, "pad_causal_batch", lambda f: w("data.pad_causal_batch", f))

    # generate: a batch=1 memory grows by the token slots forwarded into it
    def growth(before, result):
        after = result[1] if isinstance(result, tuple) else result
        count("generate.tokens_forwarded", int(after.counts[0]) - before)

    def reply_counts(args, kwargs, result):
        growth(int(args[3].counts[0]), result)
        count("generate.tokens_sampled", len(result[0].ids) - 1)

    patch.function(generate, "prime_memory", lambda f: w(
        "generate.prime_memory", f, after=lambda a, k, r: growth(0, r)))
    patch.function(generate, "extend_memory", lambda f: w(
        "generate.extend_memory", f, after=lambda a, k, r: growth(int(a[3].counts[0]), r)))
    patch.function(generate, "generate_response", lambda f: w(
        "generate.generate_response", f, after=reply_counts))
    patch.function(generate, "sample_from_logits", lambda f: w("generate.sample_from_logits", f))
    patch.function(generate, "self_chat", lambda f: w("generate.self_chat", f))

    # evaluate, metrics, checkpoint
    patch.function(evaluate, "evaluate_corpus", lambda f: w("evaluate.evaluate_corpus", f))
    patch.function(evaluate, "generate_round_replies",
                   lambda f: w("evaluate.generate_round_replies", f))
    patch.function(metrics, "score_replies", lambda f: w("metrics.score_replies", f))
    patch.function(ckpt, "save_checkpoint", lambda f: w("checkpoint.save", f))
    patch.function(ckpt, "load_checkpoint", lambda f: w("checkpoint.load", f))


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int,
                  cycle: dict, cycle_ops: int, timed: dict) -> dict:
    """Per-layer metrics from the spans and counters of the traced phase.

    Times are ms per operation (training step or reply) over every traced
    operation; set-up calls are per set-up, evaluate and metrics calls per
    call. Counts are per operation over the first complete traced cycle
    (`cycle`, `cycle_ops`), so they repeat exactly for a seed. `timed` holds
    the counters over the whole traced phase.
    """
    arr = tracer.span_array()
    dur_ms = (arr["end"] - arr["start"]) * 1e3
    in_op = arr["request"] >= 0

    def select(name, setup=False):
        nid = tracer._ids.get(name, -1)
        return (arr["name"] == nid) & (~in_op if setup else in_op)

    def total(*names):
        return sum(float(dur_ms[select(n)].sum()) for n in names)

    def per_call(name):
        sel = select(name)
        return float(dur_ms[sel].mean()) if sel.any() else 0.0

    def per_setup(name):
        return float(dur_ms[select(name, setup=True)].sum()) / n_setups

    def count(name):
        return cycle.get(name, 0.0) / cycle_ops

    def ratio(num, den):
        return cycle.get(num, 0.0) / cycle[den] if cycle.get(den) else 0.0

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.fwd_ms.{op}"] = total(f"tensor.{op}") / n_ops
        if op != "embedding":  # the table is frozen: the tape never records it
            m[f"tensor.bwd_ms.{op}"] = total(f"tensor.bwd.{op}") / n_ops
    m["tensor.ops_per_step"] = count("tensor.tape_entries")
    m["tensor.backward_ms"] = total("tensor.backward") / n_ops

    m["model.forward_segment_calls"] = count("model.forward_segment_calls")
    m["model.forward_segment_ms"] = total("model.forward_segment") / n_ops
    for proj in ("q", "k", "v", "o"):
        m[f"model.proj_ms.{proj}"] = total(f"model.lora_linear.{proj}") / n_ops
    m["model.ffn_ms"] = total("model.linear.ffn_in", "model.linear.ffn_out", "tensor.silu") / n_ops
    m["model.lm_head_ms"] = total("model.linear.lm_head") / n_ops
    # forward_segment minus its projection, FFN and LM-head calls: the mask
    # copy, RoPE, cache concat, QK^T, softmax, PV, norms and residual adds.
    # Model spans nest only in model spans or outside the model layer, so the
    # model spans alone give self times at model granularity.
    model_ids = [i for i, n in enumerate(tracer.names) if n.startswith("model.")]
    rows = arr[in_op & np.isin(arr["name"], model_ids)]
    selfs = self_times(zip(rows["index"].tolist(), rows["start"].tolist(),
                           rows["end"].tolist(), rows["parent"].tolist()))
    fwd = tracer._ids.get("model.forward_segment", -1)
    core = sum(selfs[i] for i, n in zip(rows["index"].tolist(), rows["name"].tolist()) if n == fwd)
    m["model.attn_core_ms"] = 1e3 * core / n_ops
    m["model.mask_bytes"] = count("model.mask_bytes")

    m["memory.append_calls"] = count("memory.append_calls")
    m["memory.append_ms"] = total("memory.append") / n_ops
    m["memory.append_bytes"] = count("memory.append_bytes")
    m["memory.build_mask_ms"] = total("memory.build_mask") / n_ops
    m["memory.next_positions_ms"] = total("memory.next_positions") / n_ops
    m["memory.valid_slot_ratio"] = ratio("memory.valid_slots", "memory.stored_slots")

    m["training.loss_fwd_ms"] = total("training.midi_losses", "training.causal_loss") / n_ops
    m["training.optimizer_ms"] = total("training.optimizer_step") / n_ops
    m["training.valid_token_ratio"] = ratio("training.valid_tokens", "training.grid_tokens")

    m["data.batch_build_ms"] = total("data.build_round_batches", "data.pad_causal_batch") / n_ops
    m["data.synth_ms"] = per_setup("data.synth_generate")

    sampled = timed.get("generate.tokens_sampled", 0.0)
    m["generate.sample_ms"] = total("generate.sample_from_logits") / n_ops
    m["generate.token_ms"] = total("generate.generate_response") / sampled if sampled else 0.0
    m["generate.tokens_forwarded"] = count("generate.tokens_forwarded")
    m["generate.prime_ms"] = total("generate.prime_memory") / n_ops
    m["generate.extend_ms"] = total("generate.extend_memory") / n_ops

    m["evaluate.dialogue_ms"] = per_call("evaluate.generate_round_replies")
    m["metrics.score_replies_ms"] = per_call("metrics.score_replies")
    m["checkpoint.save_ms"] = per_setup("checkpoint.save")
    m["checkpoint.load_ms"] = per_setup("checkpoint.load")
    return m
