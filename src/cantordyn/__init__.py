"""Exact computation with homeomorphisms of the Cantor set at clopen resolution.

The package root imports no submodule: import what you use from
`cantordyn.space`, `measure`, `homeo`, `topology`, `synth`, `docformat`,
`gen` or `cli`.
"""

__version__ = "0.1.0"
