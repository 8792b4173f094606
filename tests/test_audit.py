"""The audit registry can be seen to fail.

Every registered oracle check has a fault here that breaks what the check
guards, and only that row may report FAIL under it.  Every parent slot of
the op layer's and of Node arithmetic's VJPs has a mutant that scales the
gradient returned for it by 1.01; each mutant is run against the cheapest
gradient family that reaches it, and the gradient audit must flag it;
`selftest` must fail exactly the rows whose gradient checks reach it.
These are the only faults the project injects: the library has no fault
switch of its own.
"""
import numpy as np
import pytest

from fusedet import audit, data, deformable, evaluation, fmp, neighborhood, ops, prototypes
from fusedet.autodiff import Node, as_node, grad_check, no_grad

from conftest import off_normalization


def scaled_vjp(fn, slot: int):
    """`fn` with the gradient its result's VJP returns for parent `slot`
    scaled by 1.01."""

    def mutant(*args, **kwargs):
        out = fn(*args, **kwargs)
        for node in out if isinstance(out, list) else [out]:
            if slot < len(node._parents):  # value-only nodes keep no VJP
                node._vjp = lambda g, inner=node._vjp: tuple(
                    1.01 * pg if i == slot else pg for i, pg in enumerate(inner(g))
                )
        return out

    return mutant


def install_mutant(monkeypatch, op: str, slot: int) -> None:
    owner, name = (Node, op.removeprefix("Node.")) if op.startswith("Node.") else (ops, op)
    monkeypatch.setattr(owner, name, scaled_vjp(getattr(owner, name), slot))


# (op, parent slot) -> (cheapest family that reaches it, one parameter whose
# gradient flows through it).  Families by cost: window-attention,
# aggregation-and-cosine-loss, fusion, training-loss.
MUTANTS = {
    ("matmul", 0): ("aggregation-and-cosine-loss", "protos"),
    ("matmul", 1): ("aggregation-and-cosine-loss", "cam.w"),
    ("conv1x1", 0): ("fusion", "cda_rgb.off_b"),
    ("conv1x1", 1): ("window-attention", "na.wq"),
    ("conv1x1", 2): ("fusion", "cda_rgb.off_b"),
    ("depthwise_conv", 0): ("fusion", "na_rgb.wq"),
    ("depthwise_conv", 1): ("fusion", "cda_rgb.dw"),
    ("layer_norm", 0): ("fusion", "na_rgb.wq"),
    ("layer_norm", 1): ("fusion", "cda_rgb.ln_g"),
    ("layer_norm", 2): ("fusion", "cda_rgb.ln_b"),
    ("relu", 0): ("fusion", "cda_rgb.ffn_b1"),
    ("sigmoid", 0): ("aggregation-and-cosine-loss", "protos"),
    ("tanh", 0): ("fusion", "cda_rgb.off_b"),
    ("gelu", 0): ("fusion", "cda_rgb.ln_g"),
    ("softmax", 0): ("fusion", "cda_rgb.wq"),
    ("log_softmax", 0): ("training-loss", "head.obj_b"),
    ("sqrt", 0): ("aggregation-and-cosine-loss", "protos"),
    ("absolute", 0): ("training-loss", "head.box_b"),
    ("take", 0): ("training-loss", "head.box_b"),
    ("window_attention", 0): ("window-attention", "na.wq"),
    ("window_attention", 1): ("window-attention", "na.wk"),
    ("window_attention", 2): ("window-attention", "na.wv"),
    ("aggregate", 0): ("training-loss", "na_rgb.wq"),
    ("aggregate", 1): ("aggregation-and-cosine-loss", "cam.w"),
    ("aggregate", 2): ("aggregation-and-cosine-loss", "protos"),
    ("aggregate", 3): ("aggregation-and-cosine-loss", "cam.w"),
    ("aggregate", 4): ("aggregation-and-cosine-loss", "cam.ffn_w1"),
    ("aggregate", 5): ("aggregation-and-cosine-loss", "cam.ffn_b1"),
    ("aggregate", 6): ("aggregation-and-cosine-loss", "cam.ffn_w2"),
    ("aggregate", 7): ("aggregation-and-cosine-loss", "cam.ffn_b2"),
    ("cosine_cross_entropy", 0): ("aggregation-and-cosine-loss", "protos"),
    ("cosine_cross_entropy", 1): ("aggregation-and-cosine-loss", "meta.class_weights"),
    ("concat", 0): ("fusion", "cda_ir.off_b"),
    ("concat", 1): ("fusion", "cda_rgb.off_b"),
    ("map_to_tokens", 0): ("window-attention", "na.wq"),
    ("tokens_to_map", 0): ("window-attention", "na.wq"),
    ("unstack", 0): ("training-loss", "cda_rgb.off_b"),
    ("bilinear_sample", 0): ("fusion", "na_rgb.wq"),
    ("bilinear_sample", 1): ("fusion", "cda_rgb.off_b"),
    ("Node.__add__", 0): ("aggregation-and-cosine-loss", "cam.ffn_b2"),
    ("Node.__add__", 1): ("aggregation-and-cosine-loss", "meta.class_weights"),
    ("Node.__sub__", 0): ("training-loss", "head.box_b"),
    ("Node.__mul__", 0): ("window-attention", "na.wq"),
    ("Node.__mul__", 1): ("aggregation-and-cosine-loss", "protos"),
    ("Node.__truediv__", 0): ("aggregation-and-cosine-loss", "protos"),
    ("Node.__truediv__", 1): ("aggregation-and-cosine-loss", "protos"),
    ("Node.__neg__", 0): ("training-loss", "head.obj_b"),
    ("Node.sum", 0): ("window-attention", "na.wq"),
    ("Node.reshape", 0): ("window-attention", "na.wq"),
    ("Node.transpose", 0): ("window-attention", "na.wq"),
}

# Slots no family can see, with the reason.
UNSEEN = {
    ("Node.__sub__", 1): "the one Node subtraction in any family, the box term's "
    "`take(reg, cells) - offsets`, subtracts constant targets",
}


# The slots the softmax row's gradient check, (softmax(x) * probe).sum(),
# runs: a mutant there fails that row as well, and the softmax mutant
# fails it alone, since no selftest gradient family calls `ops.softmax`.
SOFTMAX_ROW = {("softmax", 0), ("Node.__mul__", 0), ("Node.sum", 0)}


@pytest.fixture(scope="module")
def families():
    """(store, build) of each gradient family at its first verified seed."""
    return {name: case(seeds[0]) for name, case, seeds in audit.AUDIT_CASES}


def failing(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


@pytest.mark.parametrize("op, slot", sorted(MUTANTS), ids=lambda v: str(v))
def test_vjp_mutant_is_caught(op, slot, families, monkeypatch):
    family, key = MUTANTS[op, slot]
    install_mutant(monkeypatch, op, slot)
    store, build = families[family]
    assert grad_check(build, store, keys=[key]) > audit.GRAD_TOL
    rows = ["softmax-normalization"] * ((op, slot) in SOFTMAX_ROW)
    rows += ["vjp-vs-central-differences"] * (family in audit.SELFTEST_FAMILIES)
    if rows:
        assert failing(audit.run_selftests()) == rows


@pytest.mark.parametrize("name", [name for name, _, _ in audit.AUDIT_CASES])
def test_every_vjp_returns_one_gradient_per_parent(name, families):
    """Each node of a family's graph has one VJP, which returns exactly one
    gradient per parent, shaped like that parent."""
    store, build = families[name]
    seen, stack, checked = set(), [build(store.nodes())], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        grads = node._vjp(np.ones(node.shape))
        assert isinstance(grads, tuple) and len(grads) == len(node._parents)
        assert [np.shape(pg) for pg in grads] == [p.shape for p in node._parents]
        stack.extend(node._parents)
        checked += 1
    assert checked


@pytest.mark.parametrize("name", [name for name, _, _ in audit.AUDIT_CASES])
def test_grad_check_differences_the_recorded_loss(name, families):
    """grad_check's value-only forwards compute the loss its backward
    differentiates: at the family's first verified seed the two are equal
    in bytes."""
    store, build = families[name]
    recorded = build(store.nodes()).value
    with no_grad():
        value_only = build(store.nodes()).value
    assert value_only.tobytes() == recorded.tobytes()


def test_every_op_has_a_mutant():
    public = {
        name for name, fn in vars(ops).items()
        if callable(fn) and getattr(fn, "__module__", None) == ops.__name__ and not name.startswith("_")
    }
    public -= {"pixel_coords"}  # a coordinate helper that builds no Node
    covered = {op for op, _ in MUTANTS} | {op for op, _ in UNSEEN}
    assert public <= covered
    assert not set(MUTANTS) & set(UNSEEN)


def misplaced_window(monkeypatch):
    table = neighborhood.neighbor_table

    def wrong(h, w, k):
        t = table(h, w, k).copy()
        t[0] = t[-1]  # the first location attends over the last one's window
        return t

    monkeypatch.setattr(neighborhood, "neighbor_table", wrong)


def shifted_sampling(monkeypatch):
    """Samples land 1e-3 off the point asked for, so zero offsets no longer
    gather the pixels exactly."""
    sample = ops.bilinear_sample
    monkeypatch.setattr(ops, "bilinear_sample", lambda x, coords: sample(x, as_node(coords) + 1e-3))


def overshooting_tanh(monkeypatch):
    tanh = ops.tanh

    def wide(x):
        out = tanh(x)
        out.value = 1.01 * out.value
        return out

    monkeypatch.setattr(ops, "tanh", wide)


def one_match_per_group(monkeypatch):
    """Each (image, class) group lets only its first detection match."""
    match = evaluation.match

    def first_only(dets, gts, thr):
        flags, seen = match(dets, gts, thr), set()
        for i in np.argsort([-d.score for d in dets], kind="stable"):
            group = (dets[i].image_id, dets[i].class_id)
            if flags[i]:
                flags[i] = group not in seen
                seen.add(group)
        return flags

    monkeypatch.setattr(evaluation, "match", first_only)


def swapped_grid_points(monkeypatch):
    grid = deformable.reference_grid

    def swapped(h, w, r):
        g = grid(h, w, r).copy()
        g[:, [0, -1]] = g[:, [-1, 0]]
        return g

    monkeypatch.setattr(deformable, "reference_grid", swapped)


def swapped_sin_cos(monkeypatch):
    encodings = prototypes.task_encodings
    monkeypatch.setattr(prototypes, "task_encodings", lambda c, d: encodings(c, d)[:, ::-1])


def dropped_key(monkeypatch):
    read = fmp.read_arrays

    def drop_last(path):
        seed, arrays = read(path)
        arrays.pop(list(arrays)[-1])
        return seed, arrays

    monkeypatch.setattr(fmp, "read_arrays", drop_last)


def short_box_fields(monkeypatch):
    monkeypatch.setattr(data, "box_fields", lambda b: f"{b.x1:.6g} {b.y1:.6g} {b.x2:.6g} {b.y2:.6g}")


# registered check -> a fault in what it guards
BREAKS = {
    "softmax-normalization": off_normalization,
    "window-attention-vs-masked-oracle": misplaced_window,
    "zero-offset-attention-vs-dense-oracle": shifted_sampling,
    "average-precision-cases": one_match_per_group,
    "offset-bound": overshooting_tanh,
    "reference-grid-corners": swapped_grid_points,
    "task-encoding-determinism": swapped_sin_cos,
    "container-round-trip": dropped_key,
    "annotation-round-trip": short_box_fields,
    "vjp-vs-central-differences": lambda monkeypatch: install_mutant(monkeypatch, "window_attention", 1),
}


@pytest.mark.parametrize("name", [name for name, _ in audit.CHECKS])
def test_registered_check_fails_alone_on_its_fault(name, monkeypatch):
    assert name in BREAKS, f"registered check {name} has no fault that shows it can fail"
    BREAKS[name](monkeypatch)
    assert failing(audit.run_selftests()) == [name]


def test_every_fault_names_a_registered_check():
    assert set(BREAKS) == {name for name, _ in audit.CHECKS}
