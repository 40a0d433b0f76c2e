"""System specs on groups other than Z, shared by the golden and kernel tests."""

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
