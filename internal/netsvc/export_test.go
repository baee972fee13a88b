package netsvc

import "repro/internal/core"

// SessionThreads returns the session thread of every live connection, so
// a test can kill one directly — an ending no public API offers.
func (s *Server) SessionThreads() []*core.Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Thread, 0, len(s.conns))
	for _, cs := range s.conns {
		out = append(out, cs.th)
	}
	return out
}
