package nameservice

// SetTTL overrides the subscription lease, in sweep epochs (minimum 1).
func (r *TopicRegistry) SetTTL(epochs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ttl = uint64(max(epochs, 1))
}

// ServeOne handles at most one pending request, reporting whether it
// did any work. Never blocks.
func (s *Server) ServeOne() bool {
	req, _, ok := s.in.Receive()
	if !ok {
		return false
	}
	s.handle(req, 0)
	return true
}
