"""Birational dynamics on affine cubic character-variety surfaces.

Modules: params (parameter spaces and walls), surface (the involutions
sigma_i, the braid maps g_i applied through word_apply, the Coxeter
composition), lattice (exact cohomology action), lines (the 27 lines),
counting (exact counts and the periodic-point solver), cli (command-line
front end).  The package exports nothing; import from the modules.
"""
