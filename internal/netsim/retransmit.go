package netsim

// retx is a lost message parked until its retransmission cycle.
type retx struct {
	m       Message
	readyAt int
}

// lose handles a message lost in flight under an active fault plan: the
// source is nacked and retransmits after an exponential backoff, unless
// the retry budget is spent.  The reason distinguishes true in-flight
// losses (random drops, kill casualties), which count as Drops, from
// corruption discards, which were already counted when the payload was
// mangled.
func (s *sim) lose(m Message, reason DropReason) {
	if reason != DropCorrupt {
		s.res.Drops++
	}
	if s.obs != nil {
		s.obs.OnDrop(DropInfo{Cycle: s.now, Seq: m.Seq, Ev: m.Ev, Reason: reason, Attempt: m.Attempts})
	}
	m.Corrupt = false
	m.Attempts++
	if m.Attempts > s.faults.plan.MaxRetries {
		s.abandon(m)
		return
	}
	shift := m.Attempts - 1
	if shift > 20 {
		shift = 20 // backoff saturates; the retry bound does the limiting
	}
	s.retx = append(s.retx, retx{m: m, readyAt: s.now + s.faults.plan.BackoffBase<<shift})
}

// abandon gives up on a message for good.  It stays counted in inflight
// until here, so quiescence still waits for every parked retransmission.
func (s *sim) abandon(m Message) {
	s.res.Unreachable++
	s.inflight--
	if s.obs != nil {
		s.obs.OnDrop(DropInfo{Cycle: s.now, Seq: m.Seq, Ev: m.Ev, Reason: DropUnreachable, Attempt: m.Attempts})
	}
}

// releaseRetx re-sends every parked message whose backoff has elapsed.
// Entries are processed in park order, which is deterministic.
func (s *sim) releaseRetx() error {
	if len(s.retx) == 0 {
		return nil
	}
	var keep []retx
	for _, r := range s.retx {
		if r.readyAt > s.now {
			keep = append(keep, r)
			continue
		}
		if s.faults.deadV[r.m.SrcHost] {
			s.abandon(r.m) // the retransmitting source died meanwhile
			continue
		}
		s.res.Retransmits++
		if s.obs != nil {
			s.obs.OnRetransmit(RetransmitInfo{Cycle: s.now, Seq: r.m.Seq, Ev: r.m.Ev, Attempt: r.m.Attempts})
		}
		if err := s.enqueue(r.m.SrcHost, r.m); err != nil {
			return err
		}
	}
	s.retx = keep
	return nil
}
