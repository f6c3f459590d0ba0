"""Probabilistic record segmenter (paper Section 5).

The package re-exports nothing, so importing the numpy-free
:mod:`repro.prob.config` (as :mod:`repro.core.config` does) does not
load numpy; the segmenter lives in :mod:`repro.prob.segmenter`.
"""
