"""Route equivalence: where the pipeline takes a fast route for a symmetric
input, the general route must give the same answer on the same input.

Bare mode: identical photon-number equations take the cubic and the quartic
of ``steady_state._symmetric_candidates``; any other input takes the
resultant of ``_general_candidates``.  Raising cavity 2's drive by one ulp
sends a symmetric input down the resultant route, with a fixed-point set
that moves by about one ulp away from folds and pitchforks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopcav import steady_state
from hopcav.params import derive_coupling, drive_amps
from hopcav.steady_state import self_consistent_points

from test_steady_state import WM, make_params

# a point is in the margin band when two of its branches are closer than
# this, relative to its largest amplitude: near a fold or a pitchfork, where
# a 1-ulp asymmetry can split, merge or move branches by far more than 1 ulp
MARGIN = 1e-3
AMPLITUDE_RTOL = 1e-12


def solve(p, drives, delta0):
    """The branches of one bare-mode point, and the routes it took."""
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_symmetric_candidates", "_general_candidates"):
            def counted(*args, _name=name, _route=getattr(steady_state, name)):
                taken.append(_name)
                return _route(*args)
            patch.setattr(steady_state, name, counted)
        points = self_consistent_points(
            p.cavity_decay, p.mech_freq, tuple(derive_coupling(p, j) for j in (1, 2)),
            [drives], [p.hop_strength], [(delta0, delta0)])
    assert not points.errors
    return points.amp, taken


def closest_pair(amp) -> float:
    """The smallest distance between two branches, relative to the largest |a_j|."""
    gaps = [np.abs(a - b).max() for i, a in enumerate(amp) for b in amp[:i]]
    return min(gaps, default=math.inf) / np.abs(amp).max()


# the delta / xi / power ranges of the stability boundary property
# (tests/test_stability.py), with bare Langevin detunings of either sign
@settings(max_examples=80, deadline=None)
@given(delta=st.floats(-0.5, 2.5), xi=st.floats(0.0, 2.5), power=st.floats(0.010, 0.080),
       sign=st.sampled_from((1.0, -1.0)))
# bistable: three branches in this range, and points with 9 branches off it
@example(delta=1.99, xi=0.99, power=0.071, sign=1.0)
@example(delta=4.0, xi=0.0, power=0.1, sign=1.0)
@example(delta=6.0, xi=0.5, power=0.3, sign=1.0)
def test_bare_mode_symmetric_route_matches_the_resultant(delta, xi, power, sign):
    p = make_params(power=power, xi=xi * WM)
    e = drive_amps(p)
    fast, fast_route = solve(p, e, sign * delta * WM)
    general, general_route = solve(p, (e[0], math.nextafter(e[1], math.inf)), sign * delta * WM)
    assert (fast_route, general_route) == (["_symmetric_candidates"], ["_general_candidates"])
    if min(closest_pair(fast), closest_pair(general)) < MARGIN:
        return
    assert len(fast) == len(general)
    # each branch against its nearest: branches with equal |a_1| (at xi = 0)
    # need not come in the same order from both routes
    nearest = [np.abs(general - a).max(axis=1).argmin() for a in fast]
    assert sorted(nearest) == list(range(len(fast)))
    assert np.all(np.abs(fast - general[nearest]) <= AMPLITUDE_RTOL * np.abs(fast))
