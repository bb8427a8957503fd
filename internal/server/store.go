package server

// countStoreCells records cell resolutions on the
// server_store_cells_total counter pair (absent without a store, where
// every cell is computed and nothing is worth counting).
func (s *Server) countStoreCells(computed, hits int) {
	if s.storeComputed == nil {
		return
	}
	if computed > 0 {
		s.storeComputed.Add(float64(computed))
	}
	if hits > 0 {
		s.storeHits.Add(float64(hits))
	}
}
