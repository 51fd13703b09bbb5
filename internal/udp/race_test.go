//go:build race

package udp

// raceEnabled reports that the race detector is compiled in. Under it
// sync.Pool drops a share of what is put back, so the tests that pin a
// pooled path's allocation count skip.
const raceEnabled = true
