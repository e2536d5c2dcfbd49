package prep

// HasRoutingHalf reports whether v's routing half has been built,
// without building it.
func HasRoutingHalf(v *View) bool { return v.half.Load() != nil }

// CachedViews returns every view p's table holds.
func CachedViews(p *Preprocessor) []*View {
	var out []*View
	for _, pg := range p.dir {
		for x := range pg {
			if v := pg[x].Load(); v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}
