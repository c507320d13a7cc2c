"""Tests for in-situ training with photonic forward passes."""

import pytest

from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError
from repro.ml.datasets import gaussian_blobs, train_test_split
from repro.ml.insitu import InSituTrainer


@pytest.fixture(scope="module")
def task(tech):
    features, labels = gaussian_blobs(
        samples_per_class=15, classes=3, features=6, spread=0.5
    )
    features = features / features.max()
    x_train, x_test, y_train, y_test = train_test_split(features, labels)
    core = PhotonicTensorCore(rows=3, columns=6, adc_bits=6, technology=tech)
    return core, x_train, x_test, y_train, y_test


def test_training_reduces_loss_and_improves_accuracy(task):
    core, x_train, x_test, y_train, y_test = task
    trainer = InSituTrainer(core, in_features=6, classes=3, learning_rate=0.3, gain=3.0)
    before = trainer.accuracy(x_test, y_test)
    log = trainer.fit(x_train, y_train, epochs=4)
    after = trainer.accuracy(x_test, y_test)
    assert log.epochs == 4
    assert log.losses[-1] < log.losses[0]
    assert after >= before
    assert after > 0.6


def test_updates_are_metered(task):
    core, x_train, _, y_train, _ = task
    trainer = InSituTrainer(core, in_features=6, classes=3, gain=3.0)
    assert trainer.update_energy() == 0.0
    log = trainer.fit(x_train[:10], y_train[:10], epochs=1)
    assert log.weight_switch_events[-1] > 0
    assert trainer.update_energy() > 0.0
    # Energy equals switches x 0.5 pJ within the ledger's tolerance.
    switches = log.weight_switch_events[-1]
    assert trainer.update_energy() == pytest.approx(switches * 0.5e-12, rel=0.01)


def test_update_rate_bound_matches_psram(task, tech):
    core, *_ = task
    trainer = InSituTrainer(core, in_features=6, classes=3)
    expected = tech.psram.update_rate / core.columns
    assert trainer.updates_per_second_bound() == pytest.approx(expected)


def test_photonic_scores_shape(task):
    core, x_train, *_ = task
    trainer = InSituTrainer(core, in_features=6, classes=3, gain=3.0)
    scores = trainer.photonic_scores(x_train[0])
    assert scores.shape == (3,)


def test_validation(task):
    core, x_train, _, y_train, _ = task
    with pytest.raises(ConfigurationError):
        InSituTrainer(core, in_features=0, classes=3)
    with pytest.raises(ConfigurationError):
        InSituTrainer(core, in_features=6, classes=1)
    with pytest.raises(ConfigurationError):
        InSituTrainer(core, in_features=6, classes=3, learning_rate=0.0)
    trainer = InSituTrainer(core, in_features=6, classes=3)
    with pytest.raises(ConfigurationError):
        trainer.fit(x_train, y_train, epochs=0)
    with pytest.raises(ConfigurationError):
        trainer.train_epoch(x_train, y_train[:-1])
