"""Shared fixtures: a small benchmark world, a small base classifier and a
wide one; and `table_normalizer`, which fits a normalizer as
`train_editor` does.

Session-scoped so the expensive pieces (world generation, pretraining) run
once. Tests must never mutate these objects; anything that edits a model
must do so on a clone.
"""

import numpy as np
import pytest
from hypothesis import settings

from gradedit import WorldConfig, generate_world, pretrain_model
from gradedit.editor import fit_normalizer
from gradedit.training import build_factor_table

# Every run draws the same examples: seeded from each test, not from the
# local example database, and with no per-example time limit.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_world():
    return generate_world(
        WorldConfig(
            num_entities=8,
            num_relations=2,
            num_classes=6,
            feature_dim=16,
            pretrain_per_fact=25,
            records_per_fact=4,
        )
    )


@pytest.fixture(scope="session")
def small_model(small_world):
    model, acc = pretrain_model(small_world, hidden_dims=(24,), epochs=40)
    assert acc > 0.9
    return model


@pytest.fixture(scope="session")
def wide_model(small_world):
    """A base classifier on `small_world` whose middle layer, (256, 300), is
    above `mlp.OUTER_EINSUM_MIN`: one row's outer product there is formed by
    einsum."""
    model, _ = pretrain_model(small_world, hidden_dims=(300, 256), epochs=10)
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def table_normalizer():
    """A function of (model, records, params): `fit_normalizer` on the raw
    factor rows of a `FactorTable` over `records`, the one factor pass from
    which `train_editor` fits it."""
    def fit(model, records, params):
        table = build_factor_table(model, params.editable_layers, records)
        return fit_normalizer(params, table.u, table.delta)

    return fit
