"""Layer-by-layer benchmark of the engine (see README.md)."""
