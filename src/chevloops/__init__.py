"""Exact symbol loops in SL_n over polynomial rings, their Steinberg-word
translations, and independent desk-scale oracles for K2 and H2."""

from .rings import GF, FqElement, Poly, PolyRing, QQ, poly_divmod
from .chevalley import (GroupMatrix, check_root, commutator, elem,
                        eval_matrix, h_elem, negate_root,
                        product_of_elementaries, w_elem)
from .loops import (PathMatrix, c_loop, h_loop, identity_path, path_ring,
                    sl2_closed_form, verify_path_identity, w_loop, x_loop)
from .steinberg import SteinbergWord, in_k2, symbol_word, tame_invariants
from .factorization import (factor_elementary, multiply_factors,
                            path_to_steinberg, word_to_path)
from .simplicial import (SimplexMatrix, SimplexPoly, degeneracy, face,
                         moore_is_loop, path_to_simplex, simplex_ring,
                         simplex_to_path, verify_homotopy_witness)
from .snf import SNFResult, SparseIntMatrix, smith_normal_form
from .oracles import (AbelianGroupPresentation, milnor_k2_finite_field,
                      prime_factors, schur_multiplier, tame_symbol)

__version__ = "0.1.0"

__all__ = [
    "QQ", "GF", "FqElement", "Poly", "PolyRing", "poly_divmod",
    "GroupMatrix", "check_root", "negate_root", "elem", "w_elem", "h_elem",
    "eval_matrix", "product_of_elementaries", "commutator",
    "PathMatrix", "x_loop", "w_loop", "h_loop", "c_loop", "sl2_closed_form",
    "verify_path_identity", "identity_path", "path_ring",
    "SteinbergWord", "symbol_word", "in_k2", "tame_invariants",
    "factor_elementary", "multiply_factors", "word_to_path",
    "path_to_steinberg",
    "SimplexPoly", "SimplexMatrix", "simplex_ring", "face", "degeneracy",
    "moore_is_loop", "verify_homotopy_witness", "path_to_simplex",
    "simplex_to_path",
    "SparseIntMatrix", "SNFResult", "smith_normal_form",
    "AbelianGroupPresentation", "tame_symbol", "milnor_k2_finite_field",
    "schur_multiplier", "prime_factors",
    "__version__",
]
