"""Host-time benchmark of the FreePart reproduction (see README.md)."""
