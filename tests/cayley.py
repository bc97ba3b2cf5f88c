"""The smooth periodic points of c on the Cayley cubic, exactly.

At theta = (0, 0, 0, -4), x = -2cos 2pi(t1, t2, t1 + t2) takes the torus
R^2/Z^2 onto the surface, identifying exactly t and -t, and c acts on t by
C = [[-3, 2], [2, -1]] (Cantat & Loray, Ann. Inst. Fourier 59 (2009)).  So
c^N(x) = x exactly when (C^N - sI)t lies in Z^2 for a sign s, and the
points and their c-orbits come from integer 2x2 systems.
"""

from math import gcd

import numpy as np

C = np.array([[-3, 2], [2, -1]], dtype=np.int64)


def cayley_points(N: int):
    """The smooth roots of c^N(x) = x at (0, 0, 0, -4) as a complex (K, 3)
    array, and each one's orbit label, equal exactly within an orbit.

    For each sign s, M = C^N - sI: an extended gcd on M's second row (c, d)
    gives M's column Hermite form [[D/g, *], [0, g]], g = gcd(c, d) and
    D = |det M|, whose box 0 <= k < (D/g, g) holds one k per coset of
    M Z^2; t = M^-1 k has the numerators n = adj(M) k sign(det M) mod D.
    Of n and -n the smaller code n1 D + n2 is kept, which drops the
    2-torsion (the nodes, where n = -n).  An orbit's label is s and the
    least code over +-C^k n mod D, k < N.
    """
    def code(v):
        return v[0] * D + v[1]

    points, labels = [], []
    for s in (1, -1):
        (a, b), (c, d) = np.linalg.matrix_power(C, N) - s * np.eye(2, dtype=np.int64)
        det = int(a * d - b * c)
        D, g = abs(det), gcd(int(c), int(d))
        k = np.indices((D // g, g)).reshape(2, -1)
        n = np.sign(det) * np.array([[d, -b], [-c, a]]) @ k % D
        n = n[:, code(n) < code(-n % D)]
        label, m = np.full(n.shape[1], D * D), n
        for _ in range(N):
            label = np.minimum(label, np.minimum(code(m), code(-m % D)))
            m = C @ m % D
        t = np.array([n[0], n[1], (n[0] + n[1]) % D]) / D
        points.append(-2 * np.cos(2 * np.pi * t.T) + 0j)
        labels.append(2 * label + (s < 0))
    return np.concatenate(points), np.concatenate(labels)
