package dnsclient

// FreeSlots reports how many rendezvous slots sit on the engine's free
// list. Once every query has returned, that is every slot it allocated.
func (m *Mux[K, S]) FreeSlots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for p := m.free; p != nil; p = p.next {
		n++
	}
	return n
}
