//go:build race

package serve

// raceEnabled lets allocation-count gates skip under -race, where the
// instrumentation allocates and sync.Pool drops pooled objects.
const raceEnabled = true
