package wq

import "hta/internal/resources"

// The master keeps a resources.FitIndex over roster slots keyed by
// each worker's available capacity: FirstFit placement descends it
// leftmost-fit, and its root is the pass-wide maxFree bound. Draining
// workers and tombstoned slots carry resources.Zero and are never
// selected (every placeable request has a positive component).

// syncAvail refreshes a worker's leaf after any allocation, release,
// or draining change. Draining workers index as Zero so placement
// never selects them.
func (m *Master) syncAvail(w *simWorker) {
	if m.naivePlace || w.slot < 0 {
		return
	}
	if w.draining {
		m.avail.Set(w.slot, resources.Zero)
		return
	}
	m.avail.Set(w.slot, w.pool.Available())
}

// rosterAppend assigns the next slot to a joining worker.
func (m *Master) rosterAppend(w *simWorker) {
	w.slot = len(m.roster)
	m.roster = append(m.roster, w)
	if m.naivePlace {
		m.naiveOrder = append(m.naiveOrder, w.id)
		return
	}
	m.avail.Ensure(len(m.roster))
	m.avail.Set(w.slot, w.pool.Available())
}

// rosterRemove tombstones a departing worker's slot, compacting the
// roster (preserving join order) once tombstones dominate.
func (m *Master) rosterRemove(w *simWorker) {
	if w.slot < 0 {
		return
	}
	m.roster[w.slot] = nil
	if m.naivePlace {
		// The retained O(W) splice, as the pre-index roster paid.
		for i, id := range m.naiveOrder {
			if id == w.id {
				m.naiveOrder = append(m.naiveOrder[:i], m.naiveOrder[i+1:]...)
				break
			}
		}
	} else {
		m.avail.Set(w.slot, resources.Zero)
	}
	w.slot = -1
	m.tombs++
	if m.tombs > 64 && m.tombs > len(m.roster)/2 {
		m.compactRoster()
	}
}

func (m *Master) compactRoster() {
	live := m.roster[:0]
	for _, w := range m.roster {
		if w != nil {
			w.slot = len(live)
			live = append(live, w)
		}
	}
	for i := len(live); i < len(m.roster); i++ {
		m.roster[i] = nil
	}
	m.roster = live
	m.tombs = 0
	if m.naivePlace {
		return
	}
	leaves := make([]resources.Vector, len(live))
	for i, w := range live {
		if !w.draining {
			leaves[i] = w.pool.Available()
		}
	}
	m.avail.Reset(leaves)
}

// SetNaivePlacement switches FirstFit placement (and the maxFree
// bound) to the retained pre-index linear roster scan — the oracle
// the placement differential tests compare against, as kubesim's
// Config.NaiveScheduling does for its scheduler index.
func (m *Master) SetNaivePlacement(naive bool) {
	if m.naivePlace == naive {
		return
	}
	m.naivePlace = naive
	if naive {
		m.avail = resources.FitIndex{}
		m.naiveOrder = m.naiveOrder[:0]
		for _, w := range m.roster {
			if w != nil {
				m.naiveOrder = append(m.naiveOrder, w.id)
			}
		}
	} else {
		m.naiveOrder = nil
		leaves := make([]resources.Vector, len(m.roster))
		for i, w := range m.roster {
			if w != nil && !w.draining {
				leaves[i] = w.pool.Available()
			}
		}
		m.avail.Reset(leaves)
	}
	m.rev++
	m.scheduleDispatch()
}
