"""Exact Temperley-Lieb diagram calculus, complexes of planar loops, their
free dga models, and integral homology."""

from .coeff import (CoefficientDomain, DomainError, PointedRing, QQ, ZA, ZZ,
                    parse_ring, prime_field)
from .diagram import (DiagramError, Letter, LinkState, TLDiagram, cell_basis,
                      close_up, compose, enumerate_diagrams, enumerate_letters,
                      identity_diagram, new_diagram, parse_diagram,
                      parse_letter, slice_diagram, unslice)
from .loops import (Chain, ComplexSpec, EndSpec, Graffito, GraffitoError,
                    build_complex, chain_to_vector, close_ends, count_graffiti,
                    differential, divider_count, empty_system,
                    enumerate_graffiti, face, from_word, involution_lr,
                    involution_tb, loop_count, new_graffito, nondivider_count,
                    parse_chain, parse_graffito, pivot_sequence, product,
                    to_word, weight_blocks)
from .freedga import (AlgebraError, DgaMorphism, FreeDGA, GradedGenerator,
                      LoopAlgebra, NCPoly, alpha_boundary_check,
                      build_word_complex, check_chain_map,
                      check_involution_relations, four_model,
                      minimal_model, model_involutions, parse_poly, phi,
                      psi, truncated_complex)
from .homology import (Basis, ChainComplexData, HomologyGroup, SmithForm,
                       SparseMatrix, homology,
                       homology_table, integer_kernel_basis, is_boundary, is_cycle,
                       rank_over_field, smith_normal_form, solve_integer,
                       validate_d_squared, weight_decompose)

__version__ = "0.1.0"
