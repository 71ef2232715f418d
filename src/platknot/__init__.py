"""Highly twisted plat diagrams: canonical forms and verified symmetries.

Submodules:

- ``braid``      Artin-generator words as twist runs, free reduction
- ``plat``       twist matrices, braid expansion, plat closures, PD/Gauss codes
- ``canonical``  rotation action, canonical representative, equivalence
- ``twobridge``  continued fractions with |a_i| >= 3, Schubert pairs
- ``hilden``     Hilden moves and the double-coset falsification harness
- ``invariants`` bridge-colouring determinant; its oracles: Wirtinger, bracket, Jones
- ``spheres``    vertical-sphere combinatorics and maximal collections
- ``cli``        the ``plat`` command
"""

from .braid import BraidWord, compose, free_reduce, inverse
from .canonical import SymmetryElement, apply, canonical_form, equivalent, symmetry_group
from .errors import PlatError
from .invariants import LaurentPoly, determinant, jones, kauffman_bracket
from .plat import (
    PlanarDiagram,
    PlatClosureStyle,
    TwistMatrix,
    braid_closure,
    closure,
    component_count,
    is_highly_twisted,
    to_braid_word,
    validate,
)
from .spheres import VerticalSphere, maximal_collection
from .twobridge import cf_evaluate, cf_reconstruct, schubert_pair

__version__ = "0.1.0"
