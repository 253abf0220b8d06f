//! Runnable examples for the BATON reproduction live in the package root as `[[example]]` targets.
