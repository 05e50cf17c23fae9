"""Conservative finite-volume simulator for a boundary-coupled
advection-diffusion model with nonlocal, nonlinear boundary signal
production, plus the verification harness for its dichotomies (global
existence and exponential convergence vs. finite-time blow-up), exact
thresholds, and functional identities."""
