"""Deprecated: this module holds no code.

The library evaluates the expected intensity exactly (`pmbp.poi`).  The
reference methods the tests compare it against left the package and now
live in the test suite's `tests/reference/` package:

* `ConvGrid`, `HTables`, `compute_h`, `default_step`, `xi_eval`,
  `compensator_eval` and `xi_monte_carlo` (this module's uniform-grid
  convolution and Monte Carlo estimate) -> `tests/reference/engine.py`;
* `sample_conditional_hawkes` (formerly `pmbp.hawkes`) ->
  `tests/reference/engine.py`, beside `xi_monte_carlo`, its only caller;
* `closed_form_pmbp21` (formerly `pmbp.closed_form`) ->
  `tests/reference/closed_form.py`;
* `TruncationError` (formerly `pmbp.errors`) -> `tests/reference/__init__.py`,
  still a subclass of `pmbp.ConvergenceError`;
* `phi_eval` and `phi_integral` (formerly `pmbp.params`) were deleted;
  `tests/oracles.py` `kernel` and `kernel_integral` compute the same values.
  `column_masks` was deleted too; the grid reference builds its mask inline.

The module is kept, empty, only because the benchmark's `perfbench/run.py`
imports `pmbp.engine` to read `_FFT_WORKERS` (which it finds unset, as
before) for its `machine:` line; removing the file would make every
benchmark run fail.  Delete it together with that import, in the next
change to the benchmark (ROADMAP items 4 and 8).
"""
