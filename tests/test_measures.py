import numpy as np
import pytest

from qinv.measures import (
    MeasureReport,
    OrbitLabel,
    classify3,
    classify3_batch,
    d1,
    hyperdet3,
    meyer_wallach,
    onion_leq,
)
from qinv.poly import DimensionError, State, basis_state, ghz, random_state, w_state
from qinv.transvection import act_on_state, act_on_state_batch, random_sl2


REPRESENTATIVES = {
    "GHZ": ghz(3),
    "W": w_state(3),
    "B1": State(3, (0, 1, 1, 0, 0, 0, 0, 0)),
    "B2": State(3, (0, 1, 0, 0, 1, 0, 0, 0)),
    "B3": State(3, (0, 0, 1, 0, 1, 0, 0, 0)),
    "SEPARABLE": basis_state(3, 0),
}


def test_hyperdet_ghz_and_product():
    # GHZ: only the a_000^2 a_111^2 term survives, with coefficient 1.
    assert hyperdet3(ghz(3)) == pytest.approx(0.25)
    assert hyperdet3(basis_state(3, 0)) == 0
    assert hyperdet3(w_state(3)) == pytest.approx(0.0, abs=1e-12)


def test_hyperdet_wrong_k():
    with pytest.raises(DimensionError):
        hyperdet3(basis_state(2, 0))


def test_d1_bounds_and_index_check(rng):
    s = random_state(3, rng)
    for i in (1, 2, 3):
        v = d1(i, s)
        assert -1e-12 <= v <= 1 + 1e-12
    with pytest.raises(IndexError):
        d1(0, s)
    with pytest.raises(IndexError):
        d1(4, s)


def test_meyer_wallach_product_state_is_zero():
    r = meyer_wallach(basis_state(3, 5))
    assert r.q == pytest.approx(0.0, abs=1e-14)
    assert r.d1 == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_meyer_wallach_ghz_is_one():
    for route in ("direct", "covariant"):
        r = meyer_wallach(ghz(3), route=route)
        assert r.q == pytest.approx(1.0, abs=1e-12)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in r.d1)


def test_meyer_wallach_w_state():
    # Q(W_3) = 8/9, each qubit contributing linear entropy 8/9.
    r = meyer_wallach(w_state(3))
    assert r.q == pytest.approx(8 / 9)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_route_agreement(k, rng):
    # Unnormalized states too: both routes are homogeneous of degree 4.
    for normalized in (True, False):
        for _ in range(10):
            s = random_state(k, rng, normalized=normalized)
            a = meyer_wallach(s, "direct")
            b = meyer_wallach(s, "covariant")
            assert a.q == pytest.approx(b.q, abs=1e-10)
            assert a.d1 == pytest.approx(b.d1, abs=1e-10)


def test_unknown_route():
    with pytest.raises(ValueError):
        meyer_wallach(ghz(2), route="nope")


def test_report_is_frozen_tuple():
    r = MeasureReport(0.5, [0.5, 0.5])
    assert isinstance(r.d1, tuple)


def test_classify_representatives():
    for label, s in REPRESENTATIVES.items():
        result = classify3(s)
        assert result.label == label, (label, result.invariants)
        assert bool(result)


def test_classify_is_scale_free():
    s = State(3, tuple(3.7j * a for a in ghz(3).amplitudes))
    assert classify3(s).label == "GHZ"


def _moderate_sl2(rng):
    # Reject wildly ill-conditioned group elements so the normalized image
    # stays clear of the numeric threshold between orbit strata.
    while True:
        g = random_sl2(rng)
        if np.linalg.norm(g, 2) < 2.0:
            return g


def test_classify_slocc_stability(rng):
    for label, s in REPRESENTATIVES.items():
        for _ in range(20):
            g = tuple(_moderate_sl2(rng) for _ in range(3))
            moved = act_on_state(g, s)
            assert classify3(moved, tol=1e-7).label == label


def test_classify_zero_state_and_wrong_k():
    with pytest.raises(ValueError):
        classify3(State(3, (0,) * 8))
    with pytest.raises(DimensionError):
        classify3(basis_state(2, 0))


def test_unclassified_path():
    # A flag pattern with no table row reports UNCLASSIFIED and is falsy.
    assert not OrbitLabel("UNCLASSIFIED", (True, True, False, False), {})
    assert OrbitLabel("GHZ", (True,) * 4, {})


def test_onion_order():
    assert onion_leq("SEPARABLE", "GHZ")
    assert onion_leq("B1", "W")
    assert onion_leq("W", "GHZ")
    assert onion_leq("W", "W")
    assert not onion_leq("GHZ", "W")
    assert not onion_leq("B1", "B2")
    with pytest.raises(KeyError):
        onion_leq("GHZ", "nope")


def test_classification_invariants_reported():
    result = classify3(ghz(3))
    assert set(result.invariants) == {"B_200", "B_020", "B_002", "D_000"}
    assert result.invariants["D_000"] > 0


def _purity_reference(s):
    """D_1^(i) = 2 ((tr rho_i)^2 - tr rho_i^2) with numpy, per qubit."""
    psi = np.asarray(s.amplitudes, dtype=complex).reshape((2,) * s.k)
    out = []
    for i in range(s.k):
        m = np.moveaxis(psi, i, 0).reshape(2, -1)
        rho = m @ m.conj().T
        out.append(2.0 * float((np.trace(rho) ** 2 - np.trace(rho @ rho)).real))
    return out


# k=1 included: there each half of the amplitude tuple is a single entry.
@pytest.mark.parametrize("k", range(1, 9))
def test_direct_route_matches_numpy_purity(k, rng):
    for normalized in (True, False):
        for _ in range(5):
            s = random_state(k, rng, normalized=normalized)
            ref = _purity_reference(s)
            # Both sides are homogeneous of degree 4 in the amplitudes.
            tol = 1e-12 * s.norm() ** 4
            report = meyer_wallach(s, "direct")
            assert report.d1 == pytest.approx(ref, abs=tol)
            assert report.q == pytest.approx(sum(ref) / k, abs=tol)
            assert [d1(i, s) for i in range(1, k + 1)] == list(report.d1)


def test_batched_classifier_rows_are_classify3(rng):
    gs = [tuple(_moderate_sl2(rng) for _ in range(3)) for _ in range(5)]
    for label, s in REPRESENTATIVES.items():
        rows = act_on_state_batch(gs, s)
        batch = classify3_batch(rows, tol=1e-7)
        assert [r.label for r in batch] == [label] * len(gs)
        for row, result in zip(rows, batch):
            one = classify3(State(3, tuple(row)), tol=1e-7)
            assert (one.label, one.flags) == (result.label, result.flags)
            assert one.invariants == pytest.approx(result.invariants,
                                                   rel=1e-12, abs=1e-15)


def test_batched_classifier_rejects_zero_rows_and_wrong_width():
    with pytest.raises(ValueError, match="zero state"):
        classify3_batch([ghz(3).amplitudes, (0,) * 8])
    with pytest.raises(DimensionError):
        classify3_batch([ghz(2).amplitudes])


def test_batched_classifier_rejects_nan_rows_as_nan():
    # A NaN norm fails the zero check too; the NaN must be named instead.
    nan_row = (float("nan"),) + (0,) * 7
    with pytest.raises(ValueError,
                       match="^cannot classify a state with a NaN amplitude$"):
        classify3_batch([ghz(3).amplitudes, nan_row])
