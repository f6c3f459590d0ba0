"""Relational reconstruction (paper Sections 3.4 and 6.3).

Beyond record segmentation, the paper points at the bigger prize:

    "Its expressiveness gives us the power to potentially assign
    extracts to individual attributes, and, when combined with a
    system that automatically extracts column labels from tables,
    reconstruct the relational database behind the Web site."

This subpackage delivers that layer:

* :mod:`repro.relational.table_builder` — assemble a
  :class:`RelationalTable` (records x columns) from a segmentation's
  column labels;
* :mod:`repro.relational.csp_columns` — the paper's suggested
  CSP-based attribute assignment ("different values of the same
  attribute should be similar in content, e.g., start with the same
  token type.  We may be able to express this observation as a set of
  constraints.");
* :mod:`repro.relational.detail_fields` — content-based label/value
  parsing of detail pages (labels are the extracts shared by *all*
  detail pages), used to merge the two views of each record;
* :mod:`repro.relational.evaluation` — column purity against the
  simulator's ground-truth fields;
* :mod:`repro.relational.naming` — semantic column names recovered
  from the detail pages' own labels (Section 3.4's "more semantically
  meaningful labels").

The names below load on first use (:mod:`repro._lazy`), so the store,
which needs only naming and table building, does not load the
numpy-based column assigner.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.relational.csp_columns": ("CspColumnAssigner",),
    "repro.relational.detail_fields": ("detail_field_pairs",),
    "repro.relational.evaluation": ("column_purity",),
    "repro.relational.naming": ("apply_column_names", "name_columns"),
    "repro.relational.table_builder": ("RelationalTable", "build_table"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
