"""Link-level simulation of pulse-shaped multicarrier transmission over
doubly-dispersive channels: Gabor filterbanks, orthogonal data precoding,
accordion pilot placement, LMMSE and smoothness-regularized channel
estimation, one-tap MMSE equalization and a seeded Monte-Carlo harness.

The package root exports nothing: each name is imported from its module
(ddlf.harness, ddlf.gabor, ddlf.channel, ddlf.piloting, ddlf.transforms,
ddlf.estimation, ddlf.link, ddlf.cli)."""
