package faults

// LinkCut exposes the plane's link filter to the external tests.
func (p *Plane) LinkCut(from, to int) bool { return p.linkCut(from, to) }
