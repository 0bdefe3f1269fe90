//go:build race

package analysis

// raceEnabled reports whether the race detector instruments this
// build; alloc-count assertions that go through sync.Pool are skipped
// under it, because the pool drops items at random there.
const raceEnabled = true
