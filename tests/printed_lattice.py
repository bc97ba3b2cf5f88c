"""The printed pull-back matrices of the sigma_i and of c, and the
characteristic polynomial of c^*, as stated in the source paper.

cubicdyn.lattice derives each sigma_i^* from intersection data alone;
the tests compare that reconstruction with these literals.
"""

# Golden copies of the printed pull-back matrices, basis (E0, E1..E6).
SIGMA_STAR_PRINTED = {
    1: (
        (6, 3, 3, 2, 2, 2, 2),
        (-3, -2, -1, -1, -1, -1, -1),
        (-3, -1, -2, -1, -1, -1, -1),
        (-2, -1, -1, -1, 0, -1, -1),
        (-2, -1, -1, 0, -1, -1, -1),
        (-2, -1, -1, -1, -1, -1, 0),
        (-2, -1, -1, -1, -1, 0, -1),
    ),
    2: (
        (6, 2, 2, 3, 3, 2, 2),
        (-2, -1, 0, -1, -1, -1, -1),
        (-2, 0, -1, -1, -1, -1, -1),
        (-3, -1, -1, -2, -1, -1, -1),
        (-3, -1, -1, -1, -2, -1, -1),
        (-2, -1, -1, -1, -1, -1, 0),
        (-2, -1, -1, -1, -1, 0, -1),
    ),
    3: (
        (6, 2, 2, 2, 2, 3, 3),
        (-2, -1, 0, -1, -1, -1, -1),
        (-2, 0, -1, -1, -1, -1, -1),
        (-2, -1, -1, -1, 0, -1, -1),
        (-2, -1, -1, 0, -1, -1, -1),
        (-3, -1, -1, -1, -1, -2, -1),
        (-3, -1, -1, -1, -1, -1, -2),
    ),
}

COXETER_STAR_PRINTED = (
    (12, 6, 6, 4, 4, 3, 3),
    (-3, -2, -1, -1, -1, -1, -1),
    (-3, -1, -2, -1, -1, -1, -1),
    (-4, -2, -2, -2, -1, -1, -1),
    (-4, -2, -2, -1, -2, -1, -1),
    (-6, -3, -3, -2, -2, -2, -1),
    (-6, -3, -3, -2, -2, -1, -2),
)

# charpoly of c^*: x (x+1)^4 (x^2 - 4x - 1), lowest degree first.
COXETER_CHARPOLY = (0, -1, -8, -21, -24, -11, 0, 1)
