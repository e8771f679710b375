"""genusmass: exact class-group, genus-character, and q-series machinery for
negative fundamental discriminants, plus a coefficientwise identity verifier."""
