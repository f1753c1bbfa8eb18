"""Frame labels as a table plus codes.

Every frame the library builds holds ``(table, codes)`` equal to
``_encode(frame.labels)``: the distinct labels in use, in order of first
use, and one code per mixand in the smallest unsigned dtype that fits.
"""

import logging

import numpy as np
import pytest

from hgmm import (EngineConfig, Gaussian, HybridMixand, HybridMixture, ReductionConfig,
                  anticipate, normalize, step_discrete)
from hgmm.core import _encode
from hgmm.models import BicycleModel, UngmModel, builtin_network
from hgmm.reduction import reduce_mixture


def assert_encoded(frame):
    table, codes = _encode(frame.labels)
    assert frame.table == table
    assert frame.codes.dtype == codes.dtype and frame.codes.tolist() == codes.tolist()
    assert not frame.codes.flags.writeable


def along_x(*label_x_w):
    """Mixands heading east at (label, x, weight), on y = 0."""
    cov = np.diag([0.5, 0.3, 0.4, 0.01])
    return [HybridMixand(w, label, Gaussian(np.array([x, 0.0, 9.0, 0.0]), cov))
            for label, x, w in label_x_w]


class TestFramesHoldTheirEncoding:
    @pytest.mark.parametrize("cap", [1, 2, 10])
    def test_anticipate_mixed_labels(self, cap, lib, caplog):
        # The approach mixands fan out three ways and leave "approach"
        # unused; splits add rows, and caps 1 and 2 drop hypotheses.
        prior = HybridMixture(along_x(("approach", 30.0, 0.3), ("left", 35.0, 0.2),
                                      ("approach", 38.0, 0.1), ("straight", 36.0, 0.4)))
        cfg = EngineConfig(e_res_max=0.1, reduction=ReductionConfig(cap), horizon=2.0)
        with caplog.at_level(logging.WARNING, logger="hgmm.reduction"):
            frames = anticipate(prior, BicycleModel(builtin_network("intersection")), cfg, lib)
        assert_encoded(prior)
        for frame in frames:
            assert_encoded(frame)
        assert "approach" not in frames[-1].table
        assert any("dropping hypothesis" in r.msg for r in caplog.records) == (cap < 3)

    def test_normalize_floor_drop_empties_a_label(self):
        # The only "c" and the first "a" fall under the floor: "b" is now used first.
        mixands = along_x(("a", 1.0, 1e-9), ("b", 2.0, 0.3), ("c", 3.0, 2e-9),
                          ("a", 4.0, 0.4), ("d", 5.0, 0.3 - 3e-9))
        for given in (mixands, normalize(mixands)):
            frame = normalize(given, weight_floor=1e-6)
            assert frame.labels == ("b", "a", "d") and frame.table == ("b", "a", "d")
            assert_encoded(frame)

    def test_reducer_drop_names_the_label_and_leaves_the_table(self, caplog):
        # Two "a" mixands merge; then each label holds one and the lightest, "c", goes.
        mix = HybridMixture(along_x(("a", 1.0, 0.3), ("c", 2.0, 0.1), ("a", 1.5, 0.2),
                                    ("b", 3.0, 0.4)))
        with caplog.at_level(logging.WARNING, logger="hgmm.reduction"):
            out = reduce_mixture(mix, ReductionConfig(2))
        (record,) = [r for r in caplog.records if "dropping hypothesis" in r.msg]
        assert "'c'" in record.getMessage()
        assert out.labels == ("a", "b") and out.table == ("a", "b")
        assert_encoded(out)

    def test_step_discrete_moves(self):
        # The "approach" mixand at 41 m fans out three ways and the one at
        # 20 m stays, so "approach" is now used after the labels it moved to.
        model = BicycleModel(builtin_network("intersection"))
        mix = normalize(along_x(("left", 50.0, 1.0), ("approach", 41.0, 1.0),
                                ("approach", 20.0, 1.0)))
        got = step_discrete(mix, model)
        assert got.labels == ("left", "left", "straight", "right", "approach")
        assert got.table == ("left", "straight", "right", "approach")
        assert_encoded(got)
        # Every approach mixand leaves, so "approach" leaves the table.
        got = step_discrete(normalize(along_x(("approach", 41.0, 1.0), ("approach", 45.0, 1.0))),
                            model)
        assert got.table == ("left", "straight", "right")
        assert_encoded(got)


def test_ungm_table_keeps_one_label(lib):
    # The UNGM label is the step index, and every step moves it on by one.
    prior = HybridMixture((HybridMixand(1.0, 0, Gaussian(np.array([0.1]), np.array([[2.0]]))),))
    frames = anticipate(prior, UngmModel(), EngineConfig(horizon=30.0, dt=0.1), lib)
    assert len(frames) == 300
    assert [f.table for f in frames] == [(k,) for k in range(1, 301)]


def test_anticipate_frames_decode_labels_on_first_read(lib):
    prior = HybridMixture(along_x(("approach", 38.0, 1.0)))
    frames = anticipate(prior, BicycleModel(builtin_network("intersection")), EngineConfig(), lib)
    assert not any("labels" in frame.__dict__ for frame in frames)
    labels = frames[-1].labels
    assert frames[-1].__dict__["labels"] is labels
    assert labels == tuple(frames[-1].table[c] for c in frames[-1].codes.tolist())
