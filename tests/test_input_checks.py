"""Input checks of the library and the CLI that no other test reaches."""
import pytest
from click.testing import CliRunner

from eqw.census import grover_bisep_fraction_log2
from eqw.cli import main
from eqw.oracles import SimonInstance
from eqw.rng import SplitMix64
from eqw.states import LinearForm, StateVector, tensor_all


_TERMS_2 = r"need one or more terms, indices in 0\.\.2\^2 - 1, values nonzero"


@pytest.mark.parametrize("call, message", [
    (lambda: grover_bisep_fraction_log2(3, 3), "defined for even M only, got 3"),
    (lambda: grover_bisep_fraction_log2(3, 8), r"need 0 < M < 2\^n, got M=8, n=3"),
    (lambda: SimonInstance(1, 1, (0, 0)), "need n >= 2, got 1"),
    (lambda: SimonInstance(2, 4, (0, 1, 1, 0)), "period must be a nonzero 2-bit value, got 4"),
    (lambda: LinearForm.from_value(3, 8), "value 8 out of range for 3 bits"),
    (lambda: LinearForm.from_value(3, -1), "value -1 out of range for 3 bits"),
    (lambda: LinearForm(3, 99), "value 99 out of range for 3 bits"),
    (lambda: LinearForm(3, -1), "value -1 out of range for 3 bits"),
    (lambda: tensor_all([]), "need at least one factor"),
    (lambda: tensor_all(iter(())), "need at least one factor"),
    (lambda: SplitMix64(1).bits(0), "need a positive bit count, got 0"),
    (lambda: SplitMix64(1).below(0), "bound must be positive, got 0"),
    (lambda: StateVector.from_terms(2, {}), _TERMS_2),
    (lambda: StateVector.from_terms(2, {1: 1, 2: 0}), _TERMS_2),
    (lambda: StateVector.from_terms(2, {0: 1, 4: 1}), _TERMS_2),
    (lambda: StateVector.from_terms(2, {-1: 1, 3: 1}), _TERMS_2),
    (lambda: StateVector.from_terms(0, {0: 1}), "qubit count must be a positive integer, got 0"),
], ids=["grover-odd-m", "grover-m-at-2^n", "simon-n-1", "simon-wide-period",
        "linear-form-above", "linear-form-negative", "linear-form-init-above",
        "linear-form-init-negative", "tensor-all-empty-list",
        "tensor-all-empty-iterator", "bits-0", "below-0", "terms-empty", "terms-zero-value",
        "terms-index-at-2^m", "terms-negative-index", "terms-m-0"])
def test_out_of_range_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_a_non_integer_cap_override_exits_2_before_any_output():
    res = CliRunner().invoke(main, ["classify", "--n", "2", "--truth-table", "0110"],
                             env={"EQW_MAX_N": "abc"})
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: EQW_MAX_N must be an integer, got 'abc'\n"
