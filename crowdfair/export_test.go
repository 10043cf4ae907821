package crowdfair

// EventCount returns the length of the replica's local event trace.
func (r *Replica) EventCount() int { return r.log.Len() }
