"""Batched SMP search substrate: the batch engine must agree with the
single-configuration engine bit for bit on the Simple Majority Protocol.

The rule-agnostic contract of :func:`repro.engine.run_batch` is covered in
``test_engine_batch.py``; these checks pin the SMP case the dynamo
searches in :mod:`repro.core` depend on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import run_batch, run_synchronous
from repro.rules import SMPRule
from repro.topology import ToroidalMesh

from helpers import TORUS_KINDS


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 8))
def test_batch_step_equals_single_step(seed, batch):
    rng = np.random.default_rng(seed)
    topo = ToroidalMesh(4, 5)
    configs = rng.integers(0, 4, size=(batch, topo.num_vertices)).astype(np.int32)
    rule = SMPRule()
    stepped = rule.step_batch(configs, topo)
    for b in range(batch):
        assert np.array_equal(stepped[b], rule.step(configs[b], topo))


def test_batch_run_matches_engine(rng, torus_kind):
    topo = TORUS_KINDS[torus_kind](4, 4)
    k = 0
    configs = rng.integers(0, 3, size=(32, 16)).astype(np.int32)
    out = run_batch(topo, configs, SMPRule(), max_rounds=80, target_color=k)
    for b in range(configs.shape[0]):
        res = run_synchronous(
            topo, configs[b], SMPRule(), max_rounds=80, target_color=k
        )
        assert out.converged[b] == res.converged
        if res.converged:
            assert np.array_equal(out.final[b], res.final)
            assert out.k_monochromatic[b] == res.is_dynamo_run(k)
            assert out.monotone[b] == res.monotone


def test_batch_input_not_mutated(rng):
    topo = ToroidalMesh(3, 3)
    configs = rng.integers(0, 3, size=(4, 9)).astype(np.int32)
    before = configs.copy()
    run_batch(topo, configs, SMPRule(), max_rounds=10, target_color=0)
    assert np.array_equal(configs, before)
