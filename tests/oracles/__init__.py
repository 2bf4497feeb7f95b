"""Reference implementations the tests check the library against.

Nothing under ``src/`` imports these modules: :mod:`oracles.algebra`
evaluates conjunctive queries through a relational-algebra plan tree, and
:mod:`oracles.plans` executes recursive access plans (its canonical plan
computes the accessible part), and :mod:`oracles.witness_search` is the
emptiness witness search with full guard evaluation and descents at every
level.
"""
