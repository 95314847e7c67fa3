package decimal

// ParseFast exposes the fast routes alone to the external tests.
var ParseFast = parseFast
