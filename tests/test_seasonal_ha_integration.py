"""A full model-zoo integration run: every registered forecaster trains or
fits and predicts on one context."""

import numpy as np
import pytest

from repro.experiments import (
    ALL_MODEL_NAMES,
    DataConfig,
    ModelConfig,
    default_trainer_config,
    prepare_context,
    run_model,
)


class TestFullModelZoo:
    """Every registered model must train/fit and predict on one context."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return prepare_context(
            DataConfig(num_nodes=5, num_days=3, steps_per_day=96,
                       input_length=6, output_length=4, stride=10,
                       missing_rate=0.4, seed=0),
            ModelConfig(embed_dim=6, hidden_dim=8, num_graphs=2,
                        partition_downsample=6),
        )

    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_model_end_to_end(self, ctx, name):
        result = run_model(
            name, ctx, default_trainer_config(max_epochs=1, batch_size=32),
            horizons=[4],
        )
        pair = result.metric_at(4)
        assert np.isfinite(pair.mae) and np.isfinite(pair.rmse)
        assert pair.rmse >= pair.mae > 0
