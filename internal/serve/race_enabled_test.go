//go:build race

package serve

// raceEnabled lets the allocation-count gates that read the pooled
// reply buffers (replyBufs) skip under -race, where sync.Pool drops
// pooled objects at random.
const raceEnabled = true
