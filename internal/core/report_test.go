package core

import (
	"reflect"
	"testing"

	"govpic/internal/domain"
	"govpic/internal/perf"
	psort "govpic/internal/sort"
)

// TestSumReports: the world totals add the counts, merge the breakdowns,
// sum each class in class order and concatenate the links in report
// order.
func TestSumReports(t *testing.T) {
	var b0, b1 perf.Breakdown
	b0.AddBytes(perf.Push, 10)
	b1.AddBytes(perf.Push, 5)
	b1.AddCommWait(2e9)
	reps := []RankReport{
		{Rank: 0, Particles: 3, Pushed: 30, Moved: 2, Flops: 300, Breakdown: b0,
			SortPasses: psort.Passes{Sorts: 1},
			Classes:    classes("particles", 7, 1),
			Links:      []perf.CommLinkStat{{Src: 0, Peer: 1, MsgsSent: 4}}},
		{Rank: 1, Particles: 4, Pushed: 40, Moved: 3, Flops: 400, Breakdown: b1,
			SortPasses: psort.Passes{Sorts: 2},
			Classes:    append(classes("ghostE", 5, 2), classes("particles", 1, 1)...),
			Links:      []perf.CommLinkStat{{Src: 1, Peer: 0, MsgsSent: 6}}},
	}
	tot := SumReports(reps)
	if tot.Particles != 7 || tot.Pushed != 70 || tot.Moved != 5 || tot.Flops != 700 || tot.SortPasses.Sorts != 3 {
		t.Errorf("counts: %+v", tot)
	}
	if tot.BytesMoved(perf.Push) != 15 || tot.CommWait().Seconds() != 2 {
		t.Errorf("breakdown not merged: %d push bytes, %v wait", tot.BytesMoved(perf.Push), tot.CommWait())
	}
	if want := append(classes("ghostE", 5, 2), classes("particles", 8, 2)...); !reflect.DeepEqual(tot.Classes, want) {
		t.Errorf("classes %+v, want %+v", tot.Classes, want)
	}
	if len(tot.Links) != 2 || tot.Links[0].Src != 0 || tot.Links[1].Src != 1 {
		t.Errorf("links %+v, want rank 0's then rank 1's", tot.Links)
	}
}

func classes(name string, bytes, msgs int64) []domain.ClassStat {
	return []domain.ClassStat{{Class: name, Bytes: bytes, Msgs: msgs}}
}
