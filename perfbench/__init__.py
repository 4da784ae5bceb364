"""Crawl benchmark (see NOTES.md)."""
