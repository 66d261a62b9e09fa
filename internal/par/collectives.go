package par

// Reserved internal tags for collectives. User code should use tags >= 0;
// collectives use a disjoint negative range and carry a per-Comm sequence
// number, so they are safe to interleave with user traffic and with each
// other — provided every rank calls collectives in the same order, the usual
// MPI contract.
const (
	tagBarrierUp Tag = -1 - iota
	tagBarrierDown
)

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.collSeq++
	seq := c.collSeq
	if c.size == 1 {
		return
	}
	if c.rank == 0 {
		for i := 1; i < c.size; i++ {
			c.recvMsg(AnySource, tagBarrierUp, seq)
		}
		for i := 1; i < c.size; i++ {
			c.post(i, message{tag: tagBarrierDown, seq: seq})
		}
	} else {
		c.post(0, message{tag: tagBarrierUp, seq: seq})
		c.recvMsg(0, tagBarrierDown, seq)
	}
}
