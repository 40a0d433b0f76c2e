"""System specs and a generator shared by the golden, kernel and classify tests."""

import math

import numpy as np

# Z^2 with the commuting hyperbolic pair A, A^2 (A the cat matrix), Z x C2
# with dyadic rotations that swap the two fibers, and Z x C3 with -I on the
# Z generator and an order-3 matrix on the C3 generator: the box walk off Z.
Z2_CAT = {
    "name": "z2-cat",
    "group": "Z^2",
    "dim": 2,
    "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0], [0]]},
    "maps": [
        [{"matrix": [[2, 1], [1, 1]], "shift": [0.0, 0.0]}],
        [{"matrix": [[5, 3], [3, 2]], "shift": [0.0, 0.0]}],
    ],
}
ZXC2_ROT = {
    "name": "zxc2-rot",
    "group": "Z x C2",
    "dim": 1,
    "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0], [1, 0]]},
    "maps": [
        [{"matrix": [[1]], "shift": [0.125]}, {"matrix": [[1]], "shift": [0.625]}],
        [{"matrix": [[1]], "shift": [0.25]}, {"matrix": [[1]], "shift": [0.75]}],
    ],
}

ZXC3_ORDER3 = {
    "name": "zxc3-order3",
    "group": "Z x C3",
    "dim": 2,
    "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0], [0]]},
    "maps": [
        [{"matrix": [[-1, 0], [0, -1]], "shift": [0.0, 0.0]}],
        [{"matrix": [[0, -1], [1, -1]], "shift": [0.0, 0.0]}],
    ],
}

# Z x C2 whose Z generator swaps two fibers carrying different hyperbolic
# matrices, with -I on the C2 generator: the fibers' profiles differ
ZXC2_CAT2 = {
    "name": "zxc2-cat2",
    "group": "Z x C2",
    "dim": 2,
    "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0], [0, 1]]},
    "maps": [
        [{"matrix": [[2, 1], [1, 1]], "shift": [0.0, 0.0]},
         {"matrix": [[1, 1], [1, 2]], "shift": [0.0, 0.0]}],
        [{"matrix": [[-1, 0], [0, -1]], "shift": [0.0, 0.0]},
         {"matrix": [[-1, 0], [0, -1]], "shift": [0.0, 0.0]}],
    ],
}

# two swapped fibers carrying rotations of the 3-torus: every generator-0
# matrix on the base cycle is the identity, so neither fiber walks
ROT3 = {
    "name": "rot3",
    "group": "Z",
    "dim": 3,
    "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0]]},
    "maps": [[
        {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "shift": [math.sqrt(2) - 1, 0.25, 0.0]},
        {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "shift": [0.5, math.sqrt(3) - 1, 0.125]},
    ]],
}

# Z with a full fiber, a fiber of three slices (the second one inside the
# first, so its points step along the first slice's free axis) and a
# one-point fiber with no free axis: the slice draw and a slice's free axes
Z_SLICED = {
    "name": "z-sliced",
    "group": "Z",
    "dim": 2,
    "base": {"labels": ["w0", "w1", "w2"], "weights": [0.25, 0.5, 0.25],
             "perms": [[0, 1, 2]]},
    "fibers": ["full",
               {"slices": [[[0, 0.25]], [[0, 0.25], [1, 0.5]], [[1, 0.75]]]},
               {"slices": [[[0, 0.625], [1, 0.125]]]}],
    "maps": [[{"matrix": [[1, 0], [0, 1]], "shift": [0.375, 0.125]},
              {"matrix": [[1, 0], [0, 1]], "shift": [0.0, 0.25]},
              {"matrix": [[1, 0], [0, 1]], "shift": [0.0, 0.0]}]],
}


class _FlatNormals(np.random.Generator):
    """A generator some of whose Gaussian directions have zero norm: a draw
    whose first value is below -1.5 is zeroed, and one above 1.5 is scaled
    so far down that its squares underflow."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        z = super().standard_normal(size, dtype, out)
        if z[0] < -1.5:
            z[:] = 0.0
        elif z[0] > 1.5:
            z *= 1e-170
        return z
