import warnings
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doscontrol import LtiPlant


def pbh_every_eigenvalue(a, b) -> str | None:
    """The rank test on every eigenvalue with Re >= 0, both members of each
    conjugate pair included: the oracle for LtiPlant's check.  Returns the
    rejection message, or None for a stabilizable pair."""
    n = a.shape[0]
    for lam in np.linalg.eigvals(a):
        if lam.real < 0.0:
            continue
        pencil = np.hstack([a - lam * np.eye(n), b])
        if np.linalg.matrix_rank(pencil) < n:
            return (
                f"(A, B) is not stabilizable: eigenvalue {lam:.6g} fails "
                "the rank test"
            )
    return None


def verdict(a, b) -> str | None:
    try:
        LtiPlant(A=a, B=b)
    except ValueError as exc:
        return str(exc)
    return None


def hidden_mode_plant(rng, n, block, coupling):
    """A plant whose trailing block is reached by B only through
    ``coupling`` (0 makes it uncontrollable), in random coordinates."""
    k = block.shape[0]
    m = max(1, (n - k) // 2)
    a = rng.standard_normal((n, n))
    a[n - k:, :n - k] = 0.0
    a[n - k:, n - k:] = block
    b = rng.standard_normal((n, m))
    b[n - k:] *= coupling
    t = rng.standard_normal((n, n)) + n * np.eye(n)
    return t @ a @ np.linalg.inv(t), t @ b


class TestStabilizability:
    def test_uncontrollable_unstable_real_mode(self):
        with pytest.raises(ValueError, match=r"eigenvalue 1 fails the rank test"):
            LtiPlant(A=np.diag([1.0, -1.0]), B=[[0.0], [1.0]])

    def test_uncontrollable_unstable_pair_names_positive_member(self):
        a = np.zeros((3, 3))
        a[:2, :2] = [[0.5, 2.0], [-2.0, 0.5]]
        a[2, 2] = -1.0
        with pytest.raises(ValueError) as exc:
            LtiPlant(A=a, B=[[0.0], [0.0], [1.0]])
        assert "eigenvalue 0.5+2j fails" in str(exc.value)

    def test_uncontrollable_eigenvalue_at_zero(self):
        with pytest.raises(ValueError, match="not stabilizable"):
            LtiPlant(A=np.diag([0.0, -1.0]), B=[[0.0], [1.0]])

    def test_uncontrollable_stable_mode_accepted(self):
        plant = LtiPlant(A=np.diag([-1.0, 1.0]), B=[[0.0], [1.0]])
        assert (plant.n, plant.m) == (2, 1)

    def test_matches_the_test_on_every_eigenvalue(self):
        rng = np.random.default_rng(23)
        outcomes = []
        for i in range(200):
            n = int(rng.integers(2, 25))
            kind = i % 4
            if kind == 0:
                m = int(rng.integers(1, n + 1))
                a, b = rng.standard_normal((n, n)), rng.standard_normal((n, m))
            else:
                if kind == 1:
                    block = np.array([[rng.uniform(-0.5, 0.5)]])
                else:
                    re = rng.uniform(-0.5, 0.5) if kind == 2 else 0.0
                    im = rng.uniform(0.5, 3.0)
                    block = np.array([[re, im], [-im, re]])
                coupling = float(rng.choice([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
                a, b = hidden_mode_plant(rng, n, block, coupling)
            expected = pbh_every_eigenvalue(a, b)
            assert verdict(a, b) == expected, (i, n)
            outcomes.append((kind, expected is None))
        # both verdicts occur for hidden real modes and for hidden pairs
        for kinds in ({1}, {2, 3}):
            seen = {ok for kind, ok in outcomes if kind in kinds}
            assert seen == {True, False}, kinds


class TestGramScreen:
    """The Gram screen only spares SVDs: it never changes a verdict."""

    @settings(max_examples=300, deadline=timedelta(seconds=2),
              derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        pair=st.booleans(),
        k=st.integers(0, 16),
        # past 1e+-150 the Gram of a pencil overflows or underflows
        scale=st.one_of(st.just(0), st.integers(140, 170), st.integers(-170, -140)),
    )
    # uncontrollable modes whose Grams underflow: only the screen's
    # absolute term keeps them from being cleared
    @example(seed=7, n=10, pair=False, k=15, scale=-159)
    @example(seed=4, n=7, pair=True, k=15, scale=-159)
    def test_hidden_modes_keep_the_rank_test_verdict(self, seed, n, pair, k, scale):
        rng = np.random.default_rng(seed)
        if pair:
            re, im = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0)
            block = np.array([[re, im], [-im, re]])
        else:
            block = np.array([[rng.uniform(-0.5, 0.5)]])
        a, b = hidden_mode_plant(rng, n, block, 10.0**-k)
        a, b = a * 10.0**scale, b * 10.0**scale
        expected = pbh_every_eigenvalue(a, b)

        rank, ranked = np.linalg.matrix_rank, set()

        def spy(pencil):
            ranked.add(pencil.tobytes())
            return rank(pencil)

        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(np.linalg, "matrix_rank", spy):
            warnings.simplefilter("always")
            got = verdict(a, b)
        assert got == expected
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # a pencil tested before the rejection (if any) and never handed to
        # matrix_rank was cleared by the screen: it must have full rank
        for lam in np.linalg.eigvals(a):
            if lam.real < 0.0 or lam.imag < 0.0:
                continue
            if got is not None and f"eigenvalue {lam:.6g} fails" in got:
                break
            pencil = np.hstack([a - lam * np.eye(n), b])
            if pencil.tobytes() not in ranked:
                assert rank(pencil) == n, lam
