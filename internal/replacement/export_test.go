package replacement

// PSEL exposes a set-dueling policy's selector to the external tests.
func PSEL(p Policy) int {
	switch d := p.(type) {
	case *DRRIP:
		return d.duel.psel
	case *TDRRIP:
		return d.duel.psel
	}
	panic("replacement: PSEL of a policy without set dueling")
}
