package bandit

// HashFeatures maps categorical feature tokens into the pre-hashed
// feature-ID space, so tests can name features by string.
func HashFeatures(tokens []string) []uint64 {
	if len(tokens) == 0 {
		return nil
	}
	out := make([]uint64, len(tokens))
	for i, tok := range tokens {
		out[i] = fnv64a(tok)
	}
	return out
}
