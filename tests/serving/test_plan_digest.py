"""A plan's digest is a composition: a sealed template part and its adjacency keys.

``ExecutionPlan.digest`` hashes the template's sealed part
(``ExecutionPlan.sealed``: the ``repr`` of the plan with its adjacency keys
stripped) together with the ``repr`` of each aggregate step's keys, so a
plan bound from a sealed template (``retarget_adjacency``) re-hashes no
``repr`` of the template.  The composition must still be a content digest:
over templates × adjacency keys, equal plans have equal digests and unequal
plans unequal ones, and a retargeted plan's digest is a fresh compile's.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import make_batched_gin, make_cluster_gcn
from repro.plan import ir

MODELS = {"gcn": make_cluster_gcn, "gin": make_batched_gin}
KEYS = [
    None,
    ("adjacency", (9, 20, b"\x00" * 16)),
    ("adjacency", (9, 20, b"\x00" * 15 + b"\x01")),
    ("adjacency", (9, 20, b"\x00" * 16), (7, 9, b"\x02" * 16)),
    ("dynamic", "graph", 3),
]

templates = st.fixed_dictionaries({
    "kind": st.sampled_from(sorted(MODELS)),
    "num_layers": st.sampled_from([1, 2]),
    "num_nodes": st.sampled_from([9, 64]),
    "feature_bits": st.sampled_from([1, 4]),
    "engine": st.sampled_from(["blas", "packed"]),
})
#: One key for the whole plan (what a session binds), or a key per aggregate
#: step — its operand's and its census's — for plans built by hand.
keyings = st.one_of(
    st.sampled_from(KEYS),
    st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)), min_size=2, max_size=2),
)


def _compile(template: dict, adjacency_key=None) -> ir.ExecutionPlan:
    model = MODELS[template["kind"]](6, 3, hidden_dim=8, num_layers=template["num_layers"], seed=1)
    return ir.compile_forward_plan(
        model, num_nodes=template["num_nodes"], feature_bits=template["feature_bits"],
        engine=template["engine"], adjacency_key=adjacency_key,
    )


def _bind(template: dict, keying, seal_first: bool) -> ir.ExecutionPlan:
    """A plan of ``template`` under ``keying``: bound from the template (its
    digest sealed first or not), or with each aggregate step's keys set."""
    source = _compile(template)
    if seal_first:
        assert source.digest
    if not isinstance(keying, list):
        return source.retarget_adjacency(keying)
    layers = []
    for layer, (operand, census) in zip(source.layers, keying):
        step = layer.aggregate
        step = replace(step, pack_a=replace(step.pack_a, cache_key=operand),
                       census=ir.CensusStep(census))
        layers.append(replace(layer, aggregate=step))
    return replace(source, layers=tuple(layers))


@settings(max_examples=200)
@given(first=templates, second=st.none() | templates, keyings=st.tuples(keyings, st.none() | keyings),
       seals=st.tuples(st.booleans(), st.booleans()))
def test_equal_plans_have_equal_digests_and_unequal_plans_unequal_ones(
    first, second, keyings, seals
):
    """``None`` draws the first plan's template or keying again, so that
    equal plans built apart are drawn as often as unequal ones."""
    second = first if second is None else second
    keyings = (keyings[0], keyings[0] if keyings[1] is None else keyings[1])
    plans = [_bind(t, k, s) for t, k, s in zip((first, second), keyings, seals)]
    assert (plans[0] == plans[1]) == (plans[0].digest == plans[1].digest)
    assert all(plan.digest == replace(plan).digest for plan in plans)  # a copy seals its own


@settings(max_examples=60)
@given(template=templates, key=st.sampled_from(KEYS), seal_first=st.booleans(),
       hops=st.lists(st.sampled_from(KEYS), max_size=3))
def test_a_retargeted_plan_digests_as_a_fresh_compile(template, key, seal_first, hops):
    """However many keys a plan was bound to before, and whether its
    template was sealed when it was bound, its digest is the one a fresh
    compile under its key seals."""
    plan = _bind(template, None, seal_first)
    for hop in [*hops, key]:
        plan = plan.retarget_adjacency(hop)
    fresh = _compile(template, key)
    assert plan == fresh
    assert plan.digest == fresh.digest
    assert plan.sealed == fresh.sealed == _compile(template).sealed


def test_a_bound_plan_reprs_no_template(monkeypatch):
    """Once a template is sealed, binding it and digesting the bound plan
    takes the ``repr`` of its adjacency keys alone."""
    template = _compile({"kind": "gcn", "num_layers": 2, "num_nodes": 9, "feature_bits": 1,
                         "engine": "blas"})
    assert template.digest
    calls = []
    real = ir.ExecutionPlan.__repr__
    monkeypatch.setattr(ir.ExecutionPlan, "__repr__", lambda self: calls.append(1) or real(self))
    digests = {template.retarget_adjacency(key).digest for key in KEYS}
    assert calls == [] and len(digests) == len(KEYS)
