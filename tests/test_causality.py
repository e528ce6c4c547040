"""Every enhancement method is causal up to its algorithmic latency.

An input changed from sample S on must leave every grid row of a frame that
ends at or before S, and every output sample before the first frame that
reaches S, bit for bit as they were. For ``nkf``, ``lstm`` and model-noise
``wiener`` that latency is one window (16 ms at desk framing). The
conventional KF fits its LP models on ``lp_segment``-frame segments, so for
``kf`` the same holds from the start of that frame's segment: up to
``(lp_segment - 1) x hop + window`` samples (140 ms at desk framing).

The input is 3 s of noise at desk framing, so the networks run two blocks of
frames, ``[0, 256)`` and ``[256, 747)``. S falls inside the second block
(first frame reaching it 309, LP segment from 288), where that block starts
(frame 256, also an LP segment start) and in the last frame (746, LP segment
from 736).
"""

import numpy as np
import pytest

from nkf import enhancer
from nkf.config import RunConfig
from nkf.networks import build_model
from nkf.signal_core import Waveform

CFG = RunConfig()
NOISY = 0.1 * np.random.default_rng(0).standard_normal(3 * CFG.sample_rate)


def _run(model, method, samples):
    return enhancer.METHODS[method][0](model, Waveform(samples), CFG, None)


@pytest.fixture(scope="module")
def model():
    return build_model(CFG.n_bins, seed=0)


@pytest.fixture(scope="module")
def unchanged(model):
    """Each method's result on the unchanged input."""
    return {method: _run(model, method, NOISY) for method in enhancer.METHODS}


def _first_frame_reaching(sample: int) -> int:
    """The first frame whose window holds ``sample``."""
    return (sample - CFG.window) // CFG.hop + 1


def _lp_segment_start(frame: int, n_frames: int) -> int:
    """The first frame of ``frame``'s LP segment, a tail of ``lp_order``
    frames or fewer belonging to the segment before it."""
    starts = list(range(0, n_frames, CFG.lp_segment))
    if len(starts) > 1 and n_frames - starts[-1] <= CFG.lp_order:
        starts.pop()
    return max(s for s in starts if s <= frame)


@pytest.mark.parametrize("changed_from", [20000, 16576, 47990],
                         ids=["mid-block", "block-boundary", "last-frame"])
@pytest.mark.parametrize("method", list(enhancer.METHODS))
def test_outputs_before_the_change_are_unchanged(model, unchanged, method, changed_from):
    changed = NOISY.copy()
    changed[changed_from:] = 0.1 * np.random.default_rng(1).standard_normal(
        len(NOISY) - changed_from)
    got, want = _run(model, method, changed), unchanged[method]
    first = _first_frame_reaching(changed_from)
    n_frames = len(want.grids.amp_out)
    keep = _lp_segment_start(first, n_frames) if method == "kf" else first
    assert first < n_frames
    grids = {k: v for k, v in vars(want.grids).items() if v is not None}
    assert set(grids) == {k for k, v in vars(got.grids).items() if v is not None}
    for name, grid in grids.items():
        assert np.array_equal(getattr(got.grids, name)[:keep], grid[:keep]), name
    assert np.array_equal(got.waveform.samples[:keep * CFG.hop],
                          want.waveform.samples[:keep * CFG.hop])
    # and the change is seen at the first frame that reaches it
    assert not np.array_equal(got.grids.amp_out[first], want.grids.amp_out[first])
