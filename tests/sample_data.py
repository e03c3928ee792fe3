"""Root data shared by the test modules: the rank-2 finite types in
fundamental-weight coordinates, and untwisted affine A1^(1)."""

from kmcrystals.rootdata import validate_root_datum


def rank2(name, cartan):
    # fundamental-weight coordinates: alpha_j is column j of the Cartan matrix
    return validate_root_datum(name, 2, 2, cartan,
                               roots=[(cartan[0][j], cartan[1][j]) for j in (0, 1)],
                               pairing=[(1, 0), (0, 1)])


B2 = rank2("B2", [[2, -2], [-1, 2]])
C2 = rank2("C2", [[2, -1], [-2, 2]])
G2 = rank2("G2", [[2, -1], [-3, 2]])

# untwisted affine A1^(1) on (Lambda_0, Lambda_1, delta)-style coordinates;
# the third coordinate keeps the two simple roots independent
AFFINE_A1 = validate_root_datum("A1^(1)", 2, 3, [[2, -2], [-2, 2]],
                                roots=[(2, -2, 1), (-2, 2, 0)],
                                pairing=[(1, 0, 0), (0, 1, 0)])
