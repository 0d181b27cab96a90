"""Finite-difference validation of the analytic gradients, per variant."""

import numpy as np
import pytest

from socrec.objective import compute_gradients
from socrec.oracle import finite_difference
from socrec.selfcheck import (gradient_relative_error, instance_loss_fn,
                              make_tiny_instance)


@pytest.mark.parametrize("variant,layers", [
    ("full", 0), ("full", 1), ("full", 2), ("full", 3), ("full", 4),
    ("no_align", 1),
    ("direct_social", 0), ("direct_social", 2), ("direct_social", 4),
    ("contrastive", 1), ("contrastive", 2),
])
def test_analytic_matches_central_differences(variant, layers):
    ds, cfg, ms, batch, graphs = make_tiny_instance(
        seed=7, variant=variant, layers=layers)
    analytic = compute_gradients(batch, ms, cfg).as_dict()
    numeric = finite_difference(instance_loss_fn(cfg, batch, graphs),
                                ms.copy_params(), step=1e-6)
    assert gradient_relative_error(analytic, numeric) <= 1e-5


def test_mean_aggregation_gradients():
    ds, cfg, ms, batch, graphs = make_tiny_instance(seed=4, variant="full",
                                                    layers=2)
    cfg = cfg.with_overrides(agg="mean")
    from socrec.model import encode
    encode(ms, graphs[0], graphs[1], cfg.layers, "mean")
    analytic = compute_gradients(batch, ms, cfg).as_dict()
    numeric = finite_difference(instance_loss_fn(cfg, batch, graphs),
                                ms.copy_params(), step=1e-6)
    assert gradient_relative_error(analytic, numeric) <= 1e-5


def test_regularizer_gradient_alone():
    ds, cfg, ms, batch, graphs = make_tiny_instance(seed=11, variant="full",
                                                    layers=1)
    cfg = cfg.with_overrides(lambda1=0.0, lambda2=0.0, lambda3=0.25)
    from socrec.objective import Batch
    empty = Batch(rec_triples=np.zeros((0, 3), dtype=np.int64),
                  soc_triples=np.zeros((0, 3), dtype=np.int64),
                  ssl_pairs=np.zeros((0, 2), dtype=np.int64))
    grads = compute_gradients(empty, ms, cfg)
    np.testing.assert_allclose(grads.E_u, 0.5 * ms.E_u, atol=1e-12)
    np.testing.assert_allclose(grads.E_v, 0.5 * ms.E_v, atol=1e-12)
