//go:build !race

package shard

// raceEnabled is false in regular builds; see race_on_test.go.
const raceEnabled = false
