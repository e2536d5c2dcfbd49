//go:build race

package prep

// raceEnabled lets allocation gates skip under -race, where the
// instrumentation itself allocates.
const raceEnabled = true
