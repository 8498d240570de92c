package unreached

// Test files are never roots: this call does not reach onlyTested.
func useOnlyTested() int { return onlyTested() }
