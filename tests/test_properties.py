"""Property-based tests over random admissible parameters.

hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import emdenlab as E

# A short horizon keeps every lockstep batch to a few hundred iterations.
SMALL = E.ShootConfig(r_max=20.0)


@st.composite
def admissible_rows(draw):
    """(N, a, b, p) with N - 2 + a > 0 and b > a - 2, often with b == a."""
    N = draw(st.sampled_from([3, 4, 5]))
    a = draw(st.floats(-0.5, 1.5))
    b = a + draw(st.one_of(st.just(0.0), st.floats(-1.5, 3.0)))
    p = draw(st.floats(1.1, 8.0, exclude_min=True, exclude_max=True))
    return E.ProblemParams(N, a, b, p)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(rows=st.lists(admissible_rows(), min_size=2, max_size=4), data=st.data())
def test_a_row_shoots_the_same_alone_shuffled_and_beside_any_neighbour(rows, data):
    # The lockstep engine sums each lane's stages in stage order and builds
    # dense output for whatever rows are pending, so nothing a row computes
    # may depend on the rest of its batch.
    alone = [E.sweep_shoot([row], SMALL)[0].to_dict() for row in rows]

    order = data.draw(st.permutations(range(len(rows))))
    shuffled = E.sweep_shoot([rows[i] for i in order], SMALL)
    assert [shuffled[order.index(i)].to_dict() for i in range(len(rows))] == alone

    # a neighbour with b != a turns the r^(b-a) factor on for the whole batch
    neighbour = E.ProblemParams(3, 0.0, 0.5, 3.0)
    beside = E.sweep_shoot([neighbour, *rows], SMALL)[1:]
    assert [outcome.to_dict() for outcome in beside] == alone


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    row=admissible_rows(),
    beta=st.sampled_from([1.0, 100.0]),
    r_max=st.sampled_from([20.0, 1e3]),
)
def test_a_single_shot_and_a_one_lane_sweep_agree(row, beta, r_max):
    # shoot runs DOP853 on Python floats, sweep_shoot on numpy lanes: the
    # same steps, with powers that may round differently in the last bit
    config = E.ShootConfig(beta=beta, r_max=r_max)
    shot = E.shoot(row, config).outcome
    [lane] = E.sweep_shoot([row], config)
    assert lane.kind == shot.kind
    if isinstance(shot, E.CrossedZero):
        assert abs(lane.r0 - shot.r0) <= 1e-8 * shot.r0
