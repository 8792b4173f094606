"""Spans and call counts around the program's public functions, recorded
from the benchmark's side.

`Tracer.install` replaces each public function of the traced modules by a
wrapper in every fusedet namespace that holds it, and in the benchmark's
own modules, which is where callers look it up (`training` calls the `backward` it imported from `autodiff`,
`deformable` calls `ops.conv1x1` through the `ops` module).  `Node`
construction is counted through a wrapped `Node.__init__`.  `uninstall`
puts the originals back; the program's files are never changed.

Each wrapper call records a span (name, start, end, parent) in flat arrays
and adds its duration to per-name totals, and to per-scope totals while a
scope span (a training run, one inference, one audited forward) is open,
so that counts per step or per image are taken where the work happens.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions wrapped, by module.  Every name here must fire at least
# once in a traced run, so a later move or rename cannot silently drop one.
TRACED = {
    "autodiff": ("backward", "grad_check"),
    "ops": (
        "matmul", "conv1x1", "depthwise_conv", "layer_norm", "relu", "sigmoid", "tanh",
        "gelu", "softmax", "log_softmax", "sqrt", "absolute", "take", "concat", "bilinear_sample",
    ),
    "neighborhood": ("na_forward",),
    "deformable": ("cda_forward", "offset_net", "fusion_forward"),
    "prototypes": ("cam_forward", "extract_prototypes"),
    "training": ("run_training", "train_loss", "toy_head", "nms", "precompute_prototypes", "infer"),
    "data": ("sample_episode",),
    "evaluation": ("nap50",),
    "synth": ("generate_synthetic",),
    "fmp": ("read_map",),
}
NODE = "autodiff.Node"
FORWARD = "bench.forward"  # one audited loss evaluation, wrapped by the benchmark
SCOPES = ("training.run_training", "training.infer", "autodiff.grad_check", FORWARD)
# Work inside a barrier span (the benchmark's companion operations) counts
# toward no enclosing scope.
BARRIER = "bench.companions"
OPS = tuple(f"ops.{n}" for n in TRACED["ops"])
TIMED_OPS = ("conv1x1", "bilinear_sample", "matmul", "softmax", "depthwise_conv", "take", "layer_norm")

PER_LAYER = (
    "autodiff.backward.ms", "autodiff.Node.count_per_step", "autodiff.grad_check.forwards",
    "autodiff.grad_check.ms_per_forward", "autodiff.Node.count_per_forward",
    "ops.calls_per_step", *(f"ops.{n}.ms" for n in TIMED_OPS), "ops.calls_per_image",
    "neighborhood.na_forward.ms", "deformable.cda_forward.ms", "deformable.offset_net.ms",
    "deformable.fusion_forward.ms", "deformable.fusion_forward.calls_per_step",
    "prototypes.cam_forward.ms", "prototypes.extract_prototypes.ms",
    "training.train_loss.ms", "training.toy_head.ms", "training.nms.ms", "training.nms.candidates",
    "training.nms.kept", "training.precompute_prototypes.ms",
    "data.sample_episode.ms", "evaluation.nap50.ms",
    "synth.generate_synthetic.ms", "fmp.read_map.ms",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._scopes: list[int] = []
        self._scope_ids = {self._id(s) for s in SCOPES}
        self._barrier = self._id(BARRIER)
        self._hidden: list[list[int]] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.scoped_calls: Counter = Counter()
        self.scoped_seconds: defaultdict = defaultdict(float)
        self.nms_candidates = 0
        self.nms_kept = 0
        self.audit_rounds = 0
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.calls[nid] += 1
        for s in self._scopes:
            self.scoped_calls[s, nid] += 1
        if nid in self._scope_ids:
            self._scopes.append(nid)
        elif nid == self._barrier:
            self._hidden.append(self._scopes[:])
            self._scopes.clear()
        self.span_start.append(time.perf_counter())
        return i

    def _exit(self, i: int, nid: int) -> None:
        end = time.perf_counter()
        self.span_end[i] = end
        self._stack.pop()
        if nid in self._scope_ids:
            self._scopes.pop()
        elif nid == self._barrier:
            self._scopes[:] = self._hidden.pop()
        dur = end - self.span_start[i]
        self.seconds[nid] += dur
        for s in self._scopes:
            self.scoped_seconds[s, nid] += dur

    def wrap(self, name: str, fn):
        nid = self._id(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(i, nid)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """One benchmark-side span around the body of a with statement."""
        nid = self._id(name)
        i = self._enter(nid)
        try:
            yield
        finally:
            self._exit(i, nid)

    def install(self, callers=()) -> None:
        """Wrap in every fusedet module and in each module of `callers`."""
        mods = {name: importlib.import_module(f"fusedet.{name}") for name in TRACED}
        namespaces = [m for n, m in sys.modules.items() if n == "fusedet" or n.startswith("fusedet.")]
        namespaces += list(callers)
        for mod_name, funcs in TRACED.items():
            for fname in funcs:
                original = getattr(mods[mod_name], fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", original)
                if fname == "nms":
                    wrapper = self._count_nms(wrapper)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        node_cls = mods["autodiff"].Node
        original_init = node_cls.__init__
        nid = self._id(NODE)
        calls, scoped, scopes = self.calls, self.scoped_calls, self._scopes

        def counted_init(node, *args, **kwargs):
            calls[nid] += 1
            for s in scopes:
                scoped[s, nid] += 1
            original_init(node, *args, **kwargs)

        self._undo.append((node_cls, "__init__", original_init))
        node_cls.__init__ = counted_init

    def _count_nms(self, wrapper):
        def counted(dets, *args, **kwargs):
            kept = wrapper(dets, *args, **kwargs)
            self.nms_candidates += len(dets)
            self.nms_kept += len(kept)
            return kept

        return counted

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)

    # -- results ------------------------------------------------------------

    def named(self) -> list[str]:
        return [f"{m}.{f}" for m, fs in TRACED.items() for f in fs] + [NODE, FORWARD]

    def silent(self) -> list[str]:
        """Named spans and counts that never fired."""
        return [n for n in self.named() if self.calls[self._id(n)] == 0]

    def _ms(self, name: str) -> float:
        nid = self._id(name)
        return 1e3 * self.seconds[nid] / self.calls[nid]

    def _within(self, scope: str, names) -> int:
        s = self._id(scope)
        return sum(self.scoped_calls[s, self._id(n)] for n in names)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every PER_LAYER metric with its unit.  `.ms` is mean inclusive milliseconds per
        call; per-step counts are taken inside training runs, per-image
        counts inside `infer`, per-forward figures inside audited forwards."""
        steps = self._within("training.run_training", ["data.sample_episode"])
        images = self.calls[self._id("training.infer")]
        gc, fwd = self._id("autodiff.grad_check"), self._id(FORWARD)
        gc_forwards = self.scoped_calls[gc, fwd]
        out = {name: self._ms(name[: -len(".ms")]) for name in PER_LAYER if name.endswith(".ms")}
        out.update({
            "autodiff.Node.count_per_step": self._within("training.run_training", [NODE]) / steps,
            "autodiff.grad_check.forwards": gc_forwards / self.audit_rounds,
            "autodiff.grad_check.ms_per_forward": 1e3 * self.scoped_seconds[gc, fwd] / gc_forwards,
            "autodiff.Node.count_per_forward": self._within(FORWARD, [NODE]) / self.calls[fwd],
            "ops.calls_per_step": self._within("training.run_training", OPS) / steps,
            "ops.calls_per_image": self._within("training.infer", OPS) / images,
            "deformable.fusion_forward.calls_per_step":
                self._within("training.run_training", ["deformable.fusion_forward"]) / steps,
            "training.nms.candidates": self.nms_candidates / self.calls[self._id("training.nms")],
            "training.nms.kept": self.nms_kept / self.calls[self._id("training.nms")],
        })
        return {name: (out[name], "ms" if ".ms" in name else "count") for name in PER_LAYER}

    def write(self, path) -> None:
        """All spans as tab-separated name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("# span\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )
