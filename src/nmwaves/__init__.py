"""Wavefront analysis for the diffusive Nicholson blowflies equation.

Library plus CLI covering: the exponential-series expansion of the
heteroclinic connection of the delay equation, characteristic-root and
wave-speed analysis, the verdict for non-monotone non-oscillating
wavefronts, parameter-region boundary curves with certified sweeps, and
delayed reaction-diffusion simulations with front-speed and shape
diagnostics.

Names are imported from the module that defines them, e.g.
``from nmwaves.model import ModelParams``; the package root re-exports
nothing, so each command loads only its own layers.
"""

__version__ = "0.1.0"
