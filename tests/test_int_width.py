"""The integer kernel's int32 claim, checked on the shipped module's own
code at narrow word widths over every reachable state (see int_width.py,
which runs W = 10 as a script)."""

import pytest

from int_width import WidthError, instrument, max_lag

# A W-bit n_alpha is at most 2**(W-1) - 1.
WIDTHS = [(6, 31), (8, 32)]


@pytest.mark.parametrize("width, n_alpha_max", WIDTHS)
def test_no_value_leaves_a_w_bit_int_in_any_reachable_state(width, n_alpha_max):
    module = instrument(width)
    for n_alpha in range(1, n_alpha_max + 1):
        max_lag(module, n_alpha)


def test_the_instrumented_kernel_refuses_a_value_outside_the_width():
    module = instrument(6)
    smoother = module["IntSmoother"](2, clock=module["ManualClock"]())
    smoother.update(15)
    smoother.s1 = 31
    with pytest.raises(WidthError, match=r"^trend: .* outside \[-32, 31\]$"):
        smoother.trend()
