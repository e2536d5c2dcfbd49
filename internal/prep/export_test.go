package prep

// HasRoutingHalf reports whether v's routing half has been built,
// without building it.
func HasRoutingHalf(v *View) bool { return v.half.Load() != nil }

// CachedViews returns every view p holds, frozen and live.
func CachedViews(p *Preprocessor) []*View {
	var out []*View
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if m := sh.frozen.Load(); m != nil {
			for _, v := range *m {
				out = append(out, v)
			}
		}
		for _, v := range sh.live {
			out = append(out, v)
		}
		sh.mu.Unlock()
	}
	return out
}
