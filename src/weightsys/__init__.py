"""Exact diagram algebras, superalgebra weight systems and character calculus.

Everything in this package computes over exact scalar rings (rationals and
multivariate polynomials); no floating point is used anywhere.  The main
entry points are:

- :mod:`weightsys.scalars` -- the scalar tower and exact linear algebra,
- :mod:`weightsys.diagrams` -- unitrivalent diagrams, AS-signed canonical
  forms, STU reduction and symmetrization,
- :mod:`weightsys.superalgebras` -- sl2 and the family D(2,1,alpha),
- :mod:`weightsys.evaluation` -- weight-system evaluation (state sums and
  Verma-module highest-weight computations),
- :mod:`weightsys.asymptotics` -- leading coefficients of weight-system
  polynomials from root data,
- :mod:`weightsys.characters` -- symmetric-polynomial character calculus
  and the nonvanishing certificate,
- :mod:`weightsys.cli` -- the batch command line interface.
"""

__version__ = "0.1.0"
