// Package detrand is the repository's single gateway to seeded
// pseudo-randomness for deterministic code.
//
// The deterministic packages (adversary, core, sim, soak, seqset, wire)
// must not import math/rand directly: the top-level functions there draw
// from a process-global source, and even a benign import leaves that one
// refactor away. This package is the sanctioned alternative, and
// TestDeterministicPackagesReadNoClockOrGlobalRand holds the ban, along
// with the one on wall-clock reads, by scanning their sources.
//
// The generator is stream-identical to math/rand with a rand.NewSource
// seed: Rand is a type alias for rand.Rand, and New(seed) produces
// exactly the sequence rand.New(rand.NewSource(seed)) would. Every
// recorded soak seed, shrunk counterexample, and EXPERIMENTS.md number
// therefore replays unchanged across the migration.
package detrand

import "math/rand"

// Rand is the seeded generator type. It is an alias — not a wrapper —
// so *Rand is interchangeable with *math/rand.Rand at every existing
// API boundary (sim.Engine.Rand, netsim.AddRandomLinks, ...).
type Rand = rand.Rand

// New returns a generator seeded with seed. Same seed, same stream,
// always.
func New(seed int64) *Rand {
	return rand.New(rand.NewSource(seed))
}
