"""Built-in reprolint rules.

Each module defines exactly one rule as ``RULE``, a
:class:`repro.lint.findings.RuleInfo`; :data:`repro.lint.registry.RULES`
is the table that lists them.
"""
