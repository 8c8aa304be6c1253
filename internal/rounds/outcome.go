package rounds

// SyncOutcome is the sync outcome rule: how a synchronous round's
// selection ends, and what the round costs. Every selected client ends
// as exactly one of reported / cut / failed — failed if its transport
// died, else cut if its expected latency exceeds the deadline (or its
// whole shard was lost), else a reporter — and the round lasts as long
// as its slowest reporter, unless anyone was lost: then the server
// waits out the deadline or, without one, the slowest selected client's
// expected reply time. The flat driver, the hierarchical root (to
// collect a round and to check each shard's report) and the shard agent
// all apply this one rule, which is what keeps them in bit-for-bit
// agreement. The slices are reused across Resolve calls.
type SyncOutcome struct {
	// Reporters are the selection slots (indices into selected) whose
	// updates count, in selection order.
	Reporters []int
	// Cut are the client IDs discarded at the deadline or lost with
	// their shard; they stay alive.
	Cut []int
	// Failed are the client IDs whose transport died.
	Failed []int
	// RoundTime is the round's virtual duration in seconds.
	RoundTime float64
}

// Resolve applies the rule to one selection. latency gives a client's
// expected round latency in virtual seconds; deadline 0 disables the
// cutoff. failed and lost flag, per selection slot, a dead client
// transport and a client whose whole shard failed the round trip;
// either may be nil for "none".
func (o *SyncOutcome) Resolve(selected []int, latency func(id int) float64, deadline float64, failed, lost []bool) {
	o.Reporters, o.Cut, o.Failed = o.Reporters[:0], o.Cut[:0], o.Failed[:0]
	maxAll, maxRep := 0.0, 0.0
	for i, id := range selected {
		lat := latency(id)
		if lat > maxAll {
			maxAll = lat
		}
		switch {
		case lost != nil && lost[i]:
			// The update is gone for the round but the client is not
			// dead — its shard is.
			o.Cut = append(o.Cut, id)
		case failed != nil && failed[i]:
			o.Failed = append(o.Failed, id)
		case deadline > 0 && lat > deadline:
			o.Cut = append(o.Cut, id)
		default:
			o.Reporters = append(o.Reporters, i)
			if lat > maxRep {
				maxRep = lat
			}
		}
	}
	o.RoundTime = maxRep
	if len(o.Cut)+len(o.Failed) > 0 {
		if deadline > 0 {
			o.RoundTime = deadline
		} else {
			o.RoundTime = maxAll
		}
	}
}
