//go:build race

package shard

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool deliberately drops items (to expose races) and
// allocation-count assertions become meaningless.
const raceEnabled = true
