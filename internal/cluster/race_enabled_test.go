//go:build race

package cluster

// raceEnabled lets allocation-count gates skip under -race, where the
// instrumentation allocates and sync.Pool drops pooled builders.
const raceEnabled = true
