"""pricelab: daily option-chain pricing estimators and their evaluation.

The package prices European options off a single day's quotes with
several competing estimators (linear price interpolation, implied-vol
surfaces, kernel regression, a Variance-Gamma benchmark), supports them
with a put-call-parity toolkit, and measures them with a reproducible
out-of-sample protocol.

Import each name from the module that defines it, as in
`from pricelab.harness import run_protocol`: the root re-exports none.
"""
