"""Cross-domain cold-start recommendation toolkit."""
