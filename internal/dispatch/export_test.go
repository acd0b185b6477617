package dispatch

// DrainIdleCaptures drops every idle capture buffer.
func DrainIdleCaptures() {
	for {
		select {
		case <-idleCaptures:
		default:
			return
		}
	}
}

// PoisonIdleCaptures overwrites every idle capture buffer, its whole
// capacity, with 0xAA and returns how many it poisoned.
func PoisonIdleCaptures() int {
	n := len(idleCaptures)
	for range n {
		b := <-idleCaptures
		full := b[:cap(b)]
		for i := range full {
			full[i] = 0xAA
		}
		idleCaptures <- b
	}
	return n
}
