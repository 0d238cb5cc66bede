from eqw import verify
from eqw.separability import wht


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
