// Package cer stands in for the protocol-decision packages
// (taintProtocolPackages): any tainted argument entering a function
// here is a sink.
package cer

// Plan makes a recovery decision from an envelope kind.
func Plan(kind string) int {
	if kind == "join" {
		return 1
	}
	return 0
}
