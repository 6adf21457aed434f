package commbuf

// EndpointByIndex returns the live endpoint handle in a slot, or nil.
func (b *Buffer) EndpointByIndex(i int) *Endpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.eps) {
		return nil
	}
	return b.eps[i]
}

// ActiveEndpoints returns the number of allocated endpoints.
func (b *Buffer) ActiveEndpoints() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, ep := range b.eps {
		if ep != nil {
			n++
		}
	}
	return n
}
