package sim

// Cross-engine scheduling helpers for models whose state spans the node
// domains of a Sharded group. They degrade to plain same-engine scheduling
// when source and destination coincide (same shard, or a serial run whose
// model uses the domain-split code path), so a caller can use one code path
// at every shard count — the transport differs, never the timing.

// Group returns the Sharded group this engine belongs to, nil for a plain
// serial engine.
func (e *Engine) Group() *Sharded { return e.owner }

// CallOn invokes h.HandleEvent(a, b) after delay on dst's shard. On the
// engine's own shard (or outside a group) it is exactly Call; across shards
// it is a SendTo, so delay must be at least the edge lookahead. Either way
// it consumes one sequence number of this engine, like Call.
func (e *Engine) CallOn(dst *Engine, delay Time, h Handler, a, b int64) {
	if dst == e || e.owner == nil {
		e.Call(delay, h, a, b)
		return
	}
	e.SendTo(dst.shard, delay, h, a, b)
}

// MaxNow returns the latest current time across the group's engines — the
// end-of-run clock of a world whose ranks finished on different shards. For
// a plain engine it is just Now.
func (e *Engine) MaxNow() Time {
	if e.owner == nil {
		return e.now
	}
	t := e.now
	for _, s := range e.owner.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}
