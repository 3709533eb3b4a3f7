"""End-to-end release-cost benchmark (see README.md in this directory)."""
