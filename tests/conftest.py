from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from socrec.graph import build_interaction_laplacian, build_social_laplacian
from socrec.model import encode, init_model
from socrec.synthetic import random_dataset


@pytest.fixture
def tiny_ds():
    return random_dataset(6, 8, min_items=3, max_items=5, tie_prob=0.4, seed=3)


@pytest.fixture
def encoded(tiny_ds):
    ms = init_model(tiny_ds.num_users, tiny_ds.num_items, 4, seed=7)
    g_r = build_interaction_laplacian(tiny_ds)
    g_s = build_social_laplacian(tiny_ds)
    encode(ms, g_r, g_s, 2)
    return tiny_ds, ms, g_r, g_s


class RecordingPool(ThreadPoolExecutor):
    """A stand-in for the shared pool (set as `graph._pool`) that keeps
    every future it hands out."""

    def __init__(self, workers):
        super().__init__(workers, thread_name_prefix="recording")
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


def make_encoded(ds, dim=4, layers=2, seed=7, agg="sum"):
    ms = init_model(ds.num_users, ds.num_items, dim, seed=seed)
    g_r = build_interaction_laplacian(ds)
    g_s = build_social_laplacian(ds)
    encode(ms, g_r, g_s, layers, agg)
    return ms, g_r, g_s


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
