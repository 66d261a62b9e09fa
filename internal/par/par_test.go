package par

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []int64{42})
			data, from := c.Recv(1, 8)
			if len(data) != 2 || data[0] != -1 || data[1] != 1<<40 || from != 1 {
				panic("bad reply")
			}
		} else {
			data, from := c.Recv(0, 7)
			if len(data) != 1 || data[0] != 42 || from != 0 {
				panic("bad message")
			}
			c.Send(0, 8, []int64{-1, 1 << 40})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvQueuesOtherTags(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []int64{1})
			c.Send(1, 2, []int64{2})
		} else {
			// Receive in reverse tag order: the tag-1 message must be
			// retained, not dropped.
			d2, _ := c.Recv(0, 2)
			d1, _ := c.Recv(0, 1)
			if d1[0] != 1 || d2[0] != 2 {
				panic("tag queuing broken")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var phase atomic.Int64
	err := Run(8, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if phase.Load() != 8 {
			panic("barrier released early")
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackCollectivesDoNotCross(t *testing.T) {
	// Two consecutive gathers with different values: sequence stamping must
	// keep them separate even though fast ranks race ahead.
	err := Run(8, func(c *Comm) {
		a := c.GatherInt64(0, []int64{int64(c.Rank())})
		b := c.GatherInt64(0, []int64{int64(c.Rank() + 1000)})
		if c.Rank() == 0 {
			for r := 0; r < 8; r++ {
				if a[r][0] != int64(r) || b[r][0] != int64(r+1000) {
					panic("collectives crossed")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	err := Run(3, func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestSingleRank(t *testing.T) {
	err := Run(1, func(c *Comm) {
		c.Barrier()
		if c.AllReduceSumInt64(7) != 7 {
			panic("allreduce on 1 rank")
		}
		if v := c.BcastInt64(0, []int64{9}); v[0] != 9 {
			panic("bcast on 1 rank")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageStorm(t *testing.T) {
	// Random point-to-point traffic with mixed tags interleaved with
	// collectives: nothing may deadlock, cross-match, or be lost, and
	// receiving in a different tag order than sent must work (queuing).
	const p, nmsg, ntags = 6, 20, 3
	err := Run(p, func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
		// counts[dst*ntags+tag] = how many I sent there with that tag.
		counts := make([]int64, p*ntags)
		for i := 0; i < nmsg; i++ {
			dst := rng.Intn(p)
			if dst == c.Rank() {
				dst = (dst + 1) % p
			}
			tag := i % ntags
			c.Send(dst, Tag(1000+tag), []int64{int64(c.Rank()), int64(i)})
			counts[dst*ntags+tag]++
		}
		// Everyone learns the full traffic matrix.
		matrix := c.AllGatherInt64(counts)
		// Drain tags in REVERSE order to exercise the pending queue.
		for tag := ntags - 1; tag >= 0; tag-- {
			expect := int64(0)
			for src := 0; src < p; src++ {
				expect += matrix[src][c.Rank()*ntags+tag]
			}
			for k := int64(0); k < expect; k++ {
				data, from := c.Recv(AnySource, Tag(1000+tag))
				if data[0] != int64(from) || int(data[1])%ntags != tag {
					panic("message cross-matched")
				}
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
