"""End-to-end benchmark of the Table 1 reproduction (see README.md)."""
