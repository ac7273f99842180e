"""Reference methods that the tests compare the library's exact path against.

* `engine`: the paper's uniform-grid convolution of the response series
  (`ConvGrid`, `compute_h`, `xi_eval`, `compensator_eval`), and the Monte
  Carlo estimate of the expected intensity (`xi_monte_carlo`) over
  completions drawn by `sample_conditional_hawkes`.
* `closed_form`: the analytic expected intensity of the (d=2, e=1) model.
* `forecast`: the Monte Carlo count forecast (`sampled_forecast`), whose
  realized counts and compensator increments check the moments that
  `pmbp.predict_counts` computes exactly.

None of this is part of `pmbp`: the library evaluates the expected
intensity exactly in `pmbp.poi`, and its forecast moments exactly in
`pmbp.sampling`.
"""

import pmbp


class TruncationError(pmbp.ConvergenceError):
    """A series truncation failed to reach its threshold within the term cap."""
