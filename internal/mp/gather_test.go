package mp_test

import (
	"sync"
	"testing"

	"govpic/internal/mp"
)

// TestGatherKeepsRankOrder runs the collective's two halves on a 3-rank
// in-process world and a 3-rank TCP world: Gather hands rank 0 every
// rank's value in rank order and the others nil, and Bcast hands every
// rank rank 0's value. When the peers gather under another tag, rank
// 0's receive fails with the typed *mp.TagMismatchError, from rank 1:
// rank 0 receives in rank order.
func TestGatherKeepsRankOrder(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		w := mp.NewWorld(3)
		checkGather(t, []*mp.Comm{w.Comm(0), w.Comm(1), w.Comm(2)})
	})
	t.Run("TCP", func(t *testing.T) {
		checkGather(t, tcpComms(t, 3))
	})
}

func checkGather(t *testing.T, cs []*mp.Comm) {
	const tagUp, tagDown, tagOther = 7, 8, 9
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *mp.Comm) {
			defer wg.Done()
			rank := c.Rank()
			got := c.Gather(tagUp, int64(10+rank))
			switch {
			case rank != 0 && got != nil:
				t.Errorf("rank %d: Gather returned %v, want nil", rank, got)
			case rank == 0 && len(got) != len(cs):
				t.Errorf("rank 0: Gather returned %d values, want %d", len(got), len(cs))
			case rank == 0:
				for r, v := range got {
					if v.(int64) != int64(10+r) {
						t.Errorf("rank 0: slot %d holds %v, want %d", r, v, 10+r)
					}
				}
			}
			if b := c.Bcast(tagDown, int64(20+rank)).(int64); b != 20 {
				t.Errorf("rank %d: Bcast returned %d, want rank 0's 20", rank, b)
			}

			if rank != 0 {
				c.Gather(tagOther, int64(rank))
				return
			}
			defer func() {
				tm, ok := recover().(*mp.TagMismatchError)
				if !ok || tm.Src != 1 || tm.Want != tagUp || tm.Got != tagOther {
					t.Errorf("rank 0: a mismatched Gather failed with %v, want *mp.TagMismatchError from rank 1", tm)
				}
			}()
			c.Gather(tagUp, int64(0))
		}(c)
	}
	wg.Wait()
}
