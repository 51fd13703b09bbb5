// Package det is detlint's triggering testdata; the analyzer sees it
// checked under a deterministic package path.
package det

import (
	"math/rand" // want `deterministic package imports "math/rand"`
	"sort"
	"time"
)

func wallClock() time.Duration {
	now := time.Now()      // want `deterministic package calls time\.Now`
	return time.Since(now) // want `deterministic package calls time\.Since`
}

func globalRand() int {
	return rand.Int()
}

// virtualTime is the sanctioned pattern: the instant comes in as an
// argument. Not a finding.
func virtualTime(now time.Duration) time.Duration {
	return now + time.Second
}

func Send(string) {}

func emitInRange(m map[int]string) {
	for _, v := range m {
		Send(v) // want `Send called inside a map-range loop`
	}
}

type loop struct{}

func (loop) ScheduleOn(lane int, delay time.Duration, fn func()) {}

// The order events enter a queue is observable: a map-ordered fan-out
// of scheduling calls breaks seeded replay as surely as emission does.
func scheduleInRange(l loop, lanes map[int]func()) {
	for lane, tick := range lanes {
		l.ScheduleOn(lane, 0, tick) // want `ScheduleOn called inside a map-range loop`
	}
}

func appendNoSort(m map[int]int) []int {
	var keys []int
	for k := range m { // want `map-range loop appends to "keys" without a sort`
		keys = append(keys, k)
	}
	return keys
}

// appendThenSort is the sanctioned pattern: collect, then stabilize.
// Not a finding.
func appendThenSort(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// deleteOnly mutates the map itself; nothing order-sensitive escapes.
// Not a finding.
func deleteOnly(m map[int]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

// funcLitInRange: the Send inside the closure is not flagged (the
// closure only defines the emit, it does not run it in iteration
// order), but the unsorted append of the closures themselves still is.
func funcLitInRange(m map[int]string) []func() {
	var fns []func()
	for _, v := range m { // want `map-range loop appends to "fns" without a sort`
		v := v
		fns = append(fns, func() { Send(v) })
	}
	return fns
}
