"""Interpreters, a reduction compiler, and a bounded coverability explorer.

The package models two machine families -- one-counter pushdown systems
with resets and two-counter machines -- and compiles the latter into the
former through weak unary arithmetic gadgets, with brute-force oracles and
a bounded exhaustive explorer to certify the construction at desk scale.
The package root exports nothing: import each name from its module, as in
``from prvass.reduction import compile_machine``.
"""
