"""Kashiwara crystals over symmetrizable Kac-Moody root data: Demazure sets,
tensor product decompositions, extremality checks, and character identities,
all in exact rational arithmetic."""

from .binfinity import BSeq, binf_top
from .characters import (FormalCharacter, NonIntegralPairing, NotInSpan,
                         TruncatedSet, char_of_set, composition_pair,
                         demazure_character, demazure_op, demazure_word_op,
                         key_expand, key_polynomial, verify_demazure_character,
                         verify_key_positivity, verify_product_identity)
from .crystals import (CrystalSet, Element, ExtremalityVerdict, MismatchWitness,
                       TensorPair, enumerate_from, i_string, is_extremal,
                       is_primitive_pair, match_highest_weight,
                       primitive_elements, product_set, set_from_elements,
                       t_closure, t_word_closure, tensor, verify_axioms)
from .demazure import (ClosureProductRecord, ComponentReport, CriterionFails,
                       DecompositionReport, EquivalenceRecord,
                       EquivalenceViolation, VerificationMismatch,
                       WindowedClosure, check_equivalence, closure_product_check,
                       criterion_finite, criterion_infinity, decompose_tensor,
                       demazure_set, recognize_demazure, u_from_y)
from .paths import NonIntegralPath, PLPath, straight_path
from .rootdata import (InvariantBroken, NotDominantIntegral, NotGCM,
                       NotSymmetrizable, PairingInconsistent, RootDatum,
                       WeylElement, WordNotReduced, bruhat_leq, check_reduced,
                       datum_from_json, in_parabolic, min_coset_rep,
                       parse_weight, parse_word, preset, stabilizer_letters,
                       validate_root_datum, weight_str, weyl_group_elements,
                       word_str)

__version__ = "0.1.0"

__all__ = [
    "BSeq", "ClosureProductRecord", "ComponentReport", "CriterionFails",
    "CrystalSet", "DecompositionReport", "Element",
    "EquivalenceRecord", "EquivalenceViolation", "ExtremalityVerdict",
    "FormalCharacter", "InvariantBroken", "MismatchWitness",
    "NonIntegralPairing",
    "NonIntegralPath", "NotDominantIntegral", "NotGCM", "NotInSpan",
    "NotSymmetrizable", "PLPath", "PairingInconsistent", "RootDatum",
    "TensorPair", "TruncatedSet",
    "VerificationMismatch", "WeylElement", "WindowedClosure",
    "WordNotReduced", "binf_top", "bruhat_leq",
    "char_of_set", "check_equivalence", "check_reduced",
    "closure_product_check", "composition_pair",
    "criterion_finite", "criterion_infinity", "datum_from_json",
    "decompose_tensor", "demazure_character",
    "demazure_op", "demazure_set", "demazure_word_op", "enumerate_from",
    "i_string", "in_parabolic", "is_extremal",
    "is_primitive_pair", "key_expand", "key_polynomial",
    "match_highest_weight", "min_coset_rep", "parse_weight", "parse_word",
    "preset", "primitive_elements", "product_set", "recognize_demazure",
    "set_from_elements", "stabilizer_letters", "straight_path", "t_closure",
    "t_word_closure", "tensor", "u_from_y", "validate_root_datum",
    "verify_axioms", "verify_demazure_character", "verify_key_positivity",
    "verify_product_identity", "weight_str", "weyl_group_elements",
    "word_str",
]
