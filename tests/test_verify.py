import pytest

from eqw import verify
from eqw.separability import wht
from eqw.states import BooleanFunction, StateVector, state_from_function


def test_parseval_scans_every_table_after_a_spectral_failure(monkeypatch):
    # the spectral test now disagrees with the engine at the first table
    # (all +1, fully separable), and Parseval breaks only at the last one
    monkeypatch.setattr(verify, "full_separability_fast", lambda s: None)
    last = (-1,) * 4
    monkeypatch.setattr(
        verify, "wht", lambda s: [0] * 4 if s.amps == last else wht(s)
    )
    spectral, parseval = verify.verify_wht([2])
    assert spectral.status == verify.STATUS_FAIL
    assert spectral.detail == "disagreement at truth table 0000"
    assert parseval.name == "parseval n=2"
    assert parseval.status == verify.STATUS_FAIL
    assert parseval.detail == "sum of squares wrong at truth table 1111"


def test_lemma_check_examples():
    assert verify.lemma_check([StateVector(1, (1, -1)), StateVector(1, (1, 1))]) == (True, True)
    assert verify.lemma_check([StateVector(1, (1, 1)), StateVector(1, (1, 1))]) == (False, False)
    with pytest.raises(ValueError):
        verify.lemma_check([StateVector(1, (1, 1))])
    with pytest.raises(ValueError):
        verify.lemma_check([StateVector(1, (1, 0)), StateVector(1, (1, 1))])


def test_lemma_agreement_all_pairs_1x2():
    for ua in range(4):
        u = state_from_function(BooleanFunction(1, ua))
        for vb in range(16):
            v = state_from_function(BooleanFunction(2, vb))
            prod_bal, any_bal = verify.lemma_check([u, v])
            assert prod_bal == any_bal
