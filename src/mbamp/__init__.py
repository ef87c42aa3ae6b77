"""Scattering data and long-time asymptotics of an input pulse entering a
two-level laser amplifier (sharp-line Maxwell-Bloch), with a direct PDE
integrator as the independent ground truth."""

from .lightcone_asym import (BandParams, RegionTag, classify, eval_lightcone,
                             predict_peaks, solve_peak_y)
from .mb_oracle import FieldTriple, SimGrid, simulate
from .numerics import Tolerances
from .pulse import BoxPulse, PowerStartPulse, SmoothBumpPulse
from .scattering import ScatteringData, TailFit
from .soliton_spectrum import SolitonSpectrum, find_zeros, velocity_match
from .tail_asym import SolitonState, TailPhases, eval_tail, omega_pair, soliton_state

__version__ = "0.1.0"

__all__ = [
    "BandParams", "BoxPulse", "FieldTriple", "PowerStartPulse", "RegionTag",
    "ScatteringData", "SimGrid", "SmoothBumpPulse", "SolitonSpectrum",
    "SolitonState", "TailFit", "TailPhases", "Tolerances", "classify",
    "eval_lightcone", "eval_tail", "find_zeros", "omega_pair",
    "predict_peaks", "simulate", "solve_peak_y", "soliton_state",
    "velocity_match",
]
