"""Evaluation analyses: one module per paper section (§6-§8).

Import from the submodules (``repro.analysis.traffic`` and so on): the
package itself re-exports nothing, so a command that renders one table
does not load numpy and every analysis with it.
"""
