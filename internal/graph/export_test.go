package graph

// FingerprintUncached recomputes the structural hash without reading or
// filling the memo, so tests can check the memo against a fresh hash.
var FingerprintUncached = fingerprint
