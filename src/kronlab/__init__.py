"""Exact-arithmetic tensor products of finite-dimensional vector spaces.

Coordinate models over lex-ordered multi-index bases, multilinear maps by
basis extension, universal factorization, Kronecker products (dense and
lazy), tensor-space inner products, and partition-induced direct-sum
decompositions.  Everything runs over exchangeable scalar backends; the
exact ones make every identity testable bit-for-bit.
"""

from .index_space import (BlockPartition, OrderedSetPartition, Shape, block_of,
                          concat, discrete_partition, induced_partition,
                          lex_compare, unit_partition)
from .matrices import DenseMatrix
from .multilinear import (MultilinearMap, basis_functional, component, evaluate,
                          evaluate_factored, from_values)
from .scalars import (BACKENDS, COMPLEX, GAUSSIAN, RATIONAL, Backend,
                      GaussianRational, backend_of, conj, get_backend,
                      to_complex, to_gaussian, to_rational)
from .tensor import (LinearMap, NuTable, Regrouping, SubspaceProduct, Tensor,
                     TensorModel, Verdict, build_model, canonical_isomorphism,
                     dual_eval, matrix_of, pure, regroup, subspace_product,
                     universal_factor, verify_tensor_product, zero_tensor)
from .kronecker import (KroneckerOperator, factorized_matrix_product,
                        flat_pair_shape, kron)
from .inner_product import (ConjugateBilinearForm, InnerProductForm, eval_form,
                            induced_inner_product, inner_product_form,
                            product_form, validate_inner_product)
from .direct_sum import (BlockLabelMatrix, Decomposition, Summand,
                         block_label_matrix, decompose, embed, project,
                         reassemble, support_example)
from .combinatorics import (FiniteFunction, SetPartition, bell, coimage,
                            count_functions, covering_edges,
                            enumerate_functions, enumerate_partitions,
                            position_rank, refines, stirling2)

__version__ = "0.1.0"
