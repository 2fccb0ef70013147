// Package outofscope proves wirebounds' package scoping: conversions
// of unsigned words outside the decoder packages — values the
// process produced itself, not attacker-controlled bytes — are legal,
// so this fixture's golden is empty.
package outofscope

// FromCounter converts a trusted in-process counter.
func FromCounter(v uint32) int {
	return int(v)
}
